package faults

// The storage fault plane: the same deterministic, seeded fault model as
// the message plane, applied to the write/fsync/rename/read path that
// every durable artifact in the repo goes through — checkpoint files,
// the service store's status records, and the run ledger. An FS wraps
// those operations and injects ENOSPC, EIO, torn writes, silently
// dropped fsyncs, slow-disk stalls, and whole-process crashes cut at a
// chosen point inside the atomic-write sequence.
//
// Verdicts are pure hashes of (seed, op, file base name, per-file
// attempt ordinal): no mutable PRNG, so each file's fault sequence is
// identical across runs no matter how goroutines interleave — the same
// replayability contract as the message plane. Liveness is bounded the
// same way too: at most SafeAttempt consecutive operations on the same
// (op, file) can be faulted, so any retry loop that survives
// SafeAttempt+1 attempts always converges.
//
// Crashes model process death, not media failure: when one fires, the
// sequence stops at the scheduled cut (leaving whatever a real crash
// would leave — a stray temp file, an unrenamed write, a renamed but
// un-fsynced directory entry), every dirty file whose fsync was dropped
// is truncated to its last durable length (the page cache is gone), and
// every subsequent operation fails with ErrCrash until Reboot — the
// simulated machine coming back up.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// FSOp names one storage operation class.
type FSOp uint8

const (
	OpWrite  FSOp = iota // data write (whole-file or append)
	OpSync               // fsync
	OpRename             // rename into place
	OpRead               // whole-file read
)

func (op FSOp) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "fsync"
	case OpRename:
		return "rename"
	case OpRead:
		return "read"
	}
	return "op?"
}

// Crash points inside the atomic-write sequence (temp, write, fsync,
// rename). The scheduled campaign rotates through all of them, so a
// spec with Crashes >= FSCrashPoints cuts the persist path at every
// point at least once.
const (
	CrashBeforeWrite uint8 = iota // nothing written; the old image survives intact
	CrashMidWrite                 // a torn temp file exists; the destination is untouched
	CrashAfterWrite               // temp complete but unsynced and unrenamed
	CrashAfterSync                // temp durable but the rename never happened
	CrashAfterRename              // new image in place; the directory entry may not be durable

	// FSCrashPoints is the number of distinct crash points.
	FSCrashPoints = 5
)

// Injected-fault sentinels. Every transient injected error wraps both
// ErrInjected and the matching errno, so callers can retry on
// IsInjected/errors.Is(err, syscall.ENOSPC) exactly as they would for
// the real thing. ErrCrash is not transient: the process is presumed
// dead, and only Reboot clears it.
var (
	ErrInjected = errors.New("faults: injected storage fault")
	ErrCrash    = errors.New("faults: injected crash at persist point")
)

// IsCrash reports whether err is (or wraps) an injected crash.
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }

// IsInjected reports whether err is (or wraps) an injected transient
// storage fault (ENOSPC, EIO, torn write — not a crash).
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// FSSpec is a storage fault campaign: per-operation fault
// probabilities, the stall odds, and the crash schedule parameters.
type FSSpec struct {
	Seed int64 // hash seed; same seed = same campaign

	ENOSPC    float64 // per-write out-of-space probability (partial write, then failure)
	EIO       float64 // per-op I/O-error probability (sync, rename, read)
	Torn      float64 // per-write torn-write probability (partial write, detected failure)
	FsyncDrop float64 // per-fsync silent-drop probability (reports success, durability lost)
	Stall     float64 // per-file-op slow-disk stall probability

	MaxStall time.Duration // stall upper bound (draws land in [1/4, 1] of it)

	Crashes      int // crash events scheduled over the horizon
	CrashHorizon int // persist operations (writes + fsyncs) within which crashes land

	// SafeAttempt bounds consecutive faults per (op, file): the
	// SafeAttempt'th consecutive verdict on the same key is never
	// faulted, so bounded retry loops always converge.
	SafeAttempt int
}

// DefaultFSSpec returns a quiet spec (no faults) with sane bounds: 2 ms
// max stall, a 50-persist-op crash horizon, and 3 consecutive faults
// per (op, file) at most.
func DefaultFSSpec() FSSpec {
	return FSSpec{
		Seed:         1,
		MaxStall:     2 * time.Millisecond,
		CrashHorizon: 50,
		SafeAttempt:  3,
	}
}

// normalized fills zero bounds with defaults and clamps probabilities.
func (sp FSSpec) normalized() FSSpec {
	def := DefaultFSSpec()
	if sp.MaxStall <= 0 {
		sp.MaxStall = def.MaxStall
	}
	if sp.CrashHorizon <= 0 {
		sp.CrashHorizon = def.CrashHorizon
	}
	if sp.SafeAttempt <= 0 {
		sp.SafeAttempt = def.SafeAttempt
	}
	for _, p := range []*float64{&sp.ENOSPC, &sp.EIO, &sp.Torn, &sp.FsyncDrop, &sp.Stall} {
		clampProb(p)
	}
	return sp
}

// keys is the storage-plane grammar over sp's fields.
func (sp *FSSpec) keys() []specKey {
	def := DefaultFSSpec()
	return []specKey{
		seedKey(&sp.Seed),
		probKey("enospc", &sp.ENOSPC),
		probKey("eio", &sp.EIO),
		probKey("torn", &sp.Torn),
		probKey("fsyncdrop", &sp.FsyncDrop),
		probKey("stall", &sp.Stall),
		durKey("maxstall", &sp.MaxStall, def.MaxStall),
		intKey("crashes", &sp.Crashes, def.Crashes),
		intKey("horizon", &sp.CrashHorizon, def.CrashHorizon),
		intKey("safe", &sp.SafeAttempt, def.SafeAttempt),
	}
}

// ParseFSSpec parses a comma-separated key=value campaign description —
// the storage twin of ParseSpec, e.g.
//
//	"seed=11,enospc=0.05,torn=0.05,stall=0.02,maxstall=2ms,crashes=6,horizon=40"
//
// Keys: seed, enospc, eio, torn, fsyncdrop, stall (probabilities),
// crashes, horizon, safe (ints), maxstall (Go duration). Unset keys
// keep the DefaultFSSpec values.
func ParseFSSpec(s string) (FSSpec, error) {
	sp := DefaultFSSpec()
	if err := parseKeys("fs spec", s, sp.keys()); err != nil {
		return sp, err
	}
	return sp.normalized(), nil
}

// String renders the spec in ParseFSSpec's format: the seed and every
// field off its default, so a parsed spec's rendering parses back to it.
func (sp FSSpec) String() string { return renderKeys(sp.keys()) }

// FSCounts are the storage plane's injected-fault tallies.
type FSCounts struct {
	Enospc     int64 `json:"enospc"`
	Eio        int64 `json:"eio"`
	Torn       int64 `json:"torn"`
	FsyncDrops int64 `json:"fsync_drops"`
	Stalls     int64 `json:"stalls"`

	Writes int64 `json:"writes"` // whole-file atomic writes attempted
	Reads  int64 `json:"reads"`  // whole-file reads attempted

	CrashesScheduled int   `json:"crashes_scheduled"`
	CrashesFired     int64 `json:"crashes_fired"`
}

// fault verdict classes (internal).
type fsClass uint8

const (
	fsOK fsClass = iota
	fsENOSPC
	fsEIO
	fsTorn
	fsFsyncDrop
)

// fsKey identifies a per-file op stream. Streams are keyed by the full
// path (two jobs' status.json files fault independently), but the hash
// uses only the base name, so verdict sequences survive a test's
// ever-changing temp directories.
type fsKey struct {
	op   FSOp
	path string
}

type fsPathState struct {
	n      uint64 // ops drawn on this key (the per-file attempt ordinal)
	streak int    // consecutive faulted verdicts (capped at SafeAttempt)
}

type fsCrash struct {
	point uint8
	fired bool
}

type armedCrash struct {
	substr string
	point  uint8
	fired  bool
}

// FS evaluates an FSSpec over the storage path. All methods are safe on
// a nil receiver, performing the plain (fault-free) operation — callers
// route unconditionally and a nil plane costs one branch.
type FS struct {
	spec FSSpec

	mu      sync.Mutex
	states  map[fsKey]*fsPathState
	durable map[string]int64 // path -> last durably synced byte length
	dirty   map[string]bool  // paths holding data whose fsync was dropped
	sched   map[uint64]*fsCrash
	armed   []*armedCrash
	ops     uint64 // global persist-op ordinal (whole-file writes + fsyncs)

	crashed atomic.Bool

	enospc, eio, torn, fsyncDrops, stalls atomic.Int64
	writes, reads, crashes                atomic.Int64
}

// NewFS builds a storage fault plane. The crash schedule — Spec.Crashes
// events over Spec.CrashHorizon persist operations — is fixed here from
// the seed alone; crash points rotate round-robin so a campaign with
// Crashes >= FSCrashPoints cuts every point of the persist sequence.
func NewFS(spec FSSpec) *FS {
	spec = spec.normalized()
	fs := &FS{
		spec:    spec,
		states:  make(map[fsKey]*fsPathState),
		durable: make(map[string]int64),
		dirty:   make(map[string]bool),
		sched:   make(map[uint64]*fsCrash),
	}
	for i := 0; i < spec.Crashes; i++ {
		h := mix(uint64(spec.Seed), 0xfc4a_54f5, uint64(i))
		ord := 1 + h%uint64(spec.CrashHorizon)
		for {
			if _, dup := fs.sched[ord]; !dup {
				break
			}
			ord++
		}
		fs.sched[ord] = &fsCrash{point: uint8(i % FSCrashPoints)}
	}
	return fs
}

// Spec returns the normalized campaign spec. A nil plane is quiet.
func (fs *FS) Spec() FSSpec {
	if fs == nil {
		return FSSpec{}
	}
	return fs.spec
}

// RetryBudget returns the attempt count that guarantees convergence for
// a retry loop over one operation: SafeAttempt consecutive faults per
// (op, file) at most, so budget = SafeAttempt + 1. A nil plane needs 1.
func (fs *FS) RetryBudget() int {
	if fs == nil {
		return 1
	}
	return fs.spec.SafeAttempt + 1
}

// ArmCrash schedules a one-shot crash at the given point of the next
// whole-file write whose path contains substr — the persist-point crash
// matrix tests aim cuts at exact files with this.
func (fs *FS) ArmCrash(substr string, point uint8) {
	if fs == nil {
		return
	}
	fs.mu.Lock()
	fs.armed = append(fs.armed, &armedCrash{substr: substr, point: point % FSCrashPoints})
	fs.mu.Unlock()
}

// Crashed reports whether an injected crash has fired and the simulated
// machine is down (every operation fails until Reboot).
func (fs *FS) Crashed() bool { return fs != nil && fs.crashed.Load() }

// Reboot brings the simulated machine back up after a crash. Dirty
// page-cache truncations were applied when the crash fired, so the disk
// is exactly what a real reboot would find.
func (fs *FS) Reboot() {
	if fs != nil {
		fs.crashed.Store(false)
	}
}

// Counts snapshots the injected-fault tallies.
func (fs *FS) Counts() FSCounts {
	if fs == nil {
		return FSCounts{}
	}
	fs.mu.Lock()
	sched := len(fs.sched)
	fs.mu.Unlock()
	return FSCounts{
		Enospc:           fs.enospc.Load(),
		Eio:              fs.eio.Load(),
		Torn:             fs.torn.Load(),
		FsyncDrops:       fs.fsyncDrops.Load(),
		Stalls:           fs.stalls.Load(),
		Writes:           fs.writes.Load(),
		Reads:            fs.reads.Load(),
		CrashesScheduled: sched,
		CrashesFired:     fs.crashes.Load(),
	}
}

// verdict draws the fault class for one operation on path. Pure hash of
// (seed, op, base name, per-key ordinal); the streak cap enforces the
// SafeAttempt liveness bound.
func (fs *FS) verdict(op FSOp, path string) (fsClass, uint64) {
	if fs == nil {
		return fsOK, 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	key := fsKey{op, path}
	st := fs.states[key]
	if st == nil {
		st = &fsPathState{}
		fs.states[key] = st
	}
	st.n++
	h := mix(uint64(fs.spec.Seed), 0xf5fa_0175, uint64(op), baseHash(path), st.n)
	u := u01(h)
	var class fsClass
	sp := &fs.spec
	switch op {
	case OpWrite:
		switch {
		case u < sp.ENOSPC:
			class = fsENOSPC
		case u < sp.ENOSPC+sp.Torn:
			class = fsTorn
		}
	case OpSync:
		switch {
		case u < sp.EIO:
			class = fsEIO
		case u < sp.EIO+sp.FsyncDrop:
			class = fsFsyncDrop
		}
	case OpRename, OpRead:
		if u < sp.EIO {
			class = fsEIO
		}
	}
	if class != fsOK {
		if st.streak >= sp.SafeAttempt {
			// Liveness bound: the SafeAttempt'th consecutive fault on this
			// key is suppressed, so retry loops always converge.
			st.streak = 0
			return fsOK, h
		}
		st.streak++
	} else {
		st.streak = 0
	}
	return class, h
}

// maybeStall draws the slow-disk stall for one file operation and
// sleeps it out (outside the mutex).
func (fs *FS) maybeStall(path string, ordinal uint64) {
	if fs.spec.Stall <= 0 {
		return
	}
	h := mix(uint64(fs.spec.Seed), 0xf557_a115, baseHash(path), ordinal)
	if u01(h) >= fs.spec.Stall {
		return
	}
	fs.stalls.Add(1)
	time.Sleep(time.Duration(spanNs(fs.spec.MaxStall, mix(h, 0xd0))))
}

// crashAt consumes the crash schedule for one persist operation:
// the global ordinal advances, and a scheduled or armed event returns
// its cut point. armedOnly ops (fsyncs) still advance the ordinal.
func (fs *FS) crashAt(path string, matchArmed bool) (uint8, uint64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops++
	ord := fs.ops
	if ev, ok := fs.sched[ord]; ok && !ev.fired {
		ev.fired = true
		return ev.point, ord, true
	}
	if matchArmed {
		for _, a := range fs.armed {
			if !a.fired && strings.Contains(path, a.substr) {
				a.fired = true
				return a.point, ord, true
			}
		}
	}
	return 0, ord, false
}

// crash fires an injected crash: dropped-fsync files lose their
// unsynced tail (the page cache dies with the process), and the plane
// refuses every operation until Reboot.
func (fs *FS) crash() error {
	fs.mu.Lock()
	for path := range fs.dirty {
		if n, ok := fs.durable[path]; ok {
			if st, err := os.Stat(path); err == nil && st.Size() > n {
				_ = os.Truncate(path, n)
			}
		}
		delete(fs.dirty, path)
	}
	fs.mu.Unlock()
	fs.crashes.Add(1)
	fs.crashed.Store(true)
	return ErrCrash
}

// markDurable records that path's first size bytes are on stable
// storage (a real fsync completed).
func (fs *FS) markDurable(path string, size int64) {
	if fs == nil {
		return
	}
	fs.mu.Lock()
	fs.durable[path] = size
	delete(fs.dirty, path)
	fs.mu.Unlock()
}

// markDirty records that path holds unsynced data beyond durable bytes;
// a crash truncates it back.
func (fs *FS) markDirty(path string, durable int64, keepExisting bool) {
	fs.mu.Lock()
	if prev, ok := fs.durable[path]; !ok || !keepExisting {
		fs.durable[path] = durable
	} else {
		fs.durable[path] = prev
	}
	fs.dirty[path] = true
	fs.mu.Unlock()
}

func injectedErr(class fsClass, op FSOp, path string) error {
	base := filepath.Base(path)
	switch class {
	case fsENOSPC:
		return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, base, syscall.ENOSPC)
	case fsEIO:
		return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, base, syscall.EIO)
	case fsTorn:
		return fmt.Errorf("%w: torn %s %s: %w", ErrInjected, op, base, syscall.EIO)
	}
	return nil
}

// WriteFile writes data to path with the full temp+fsync+rename+
// dir-fsync discipline, injecting the campaign's faults at each stage. A
// nil plane runs the same sequence with every verdict fsOK and no crash
// scheduled — this is the single implementation of the discipline,
// production's as much as the chaos campaign's.
func (fs *FS) WriteFile(path string, data []byte) error {
	var point uint8
	var crashing bool
	if fs != nil {
		if fs.crashed.Load() {
			return ErrCrash
		}
		fs.writes.Add(1)
		var ord uint64
		point, ord, crashing = fs.crashAt(path, true)
		fs.maybeStall(path, ord)
		if crashing && point == CrashBeforeWrite {
			return fs.crash()
		}
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	discard := func() {
		tmp.Close()
		os.Remove(tmpName)
	}

	class, h := fs.verdict(OpWrite, path)
	switch class {
	case fsENOSPC, fsTorn:
		// Partial write, then failure — what a full disk or an interrupted
		// write(2) leaves in the temp file. The temp is removed (the
		// caller's atomic-write contract never exposes it), the
		// destination is untouched.
		if len(data) > 0 {
			_, _ = tmp.Write(data[:h%uint64(len(data))])
		}
		discard()
		if class == fsENOSPC {
			fs.enospc.Add(1)
		} else {
			fs.torn.Add(1)
		}
		return injectedErr(class, OpWrite, path)
	}
	if crashing && point == CrashMidWrite {
		// The process dies mid-write(2): a torn temp file survives on
		// disk (inert — restores read the destination only), the
		// destination is untouched.
		if len(data) > 0 {
			_, _ = tmp.Write(data[:h%uint64(len(data))])
		}
		tmp.Close()
		return fs.crash()
	}
	if _, err := tmp.Write(data); err != nil {
		discard()
		return err
	}
	if crashing && point == CrashAfterWrite {
		tmp.Close()
		return fs.crash()
	}

	synced := false
	switch class, _ := fs.verdict(OpSync, path); class {
	case fsEIO:
		discard()
		fs.eio.Add(1)
		return injectedErr(fsEIO, OpSync, path)
	case fsFsyncDrop:
		// The disk lied: fsync reports success, the data sits in the page
		// cache. Only a later crash makes the difference observable.
		fs.fsyncDrops.Add(1)
	default:
		if err := tmp.Sync(); err != nil {
			discard()
			return err
		}
		synced = true
	}
	if crashing && point == CrashAfterSync {
		tmp.Close()
		return fs.crash()
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}

	if class, _ := fs.verdict(OpRename, path); class == fsEIO {
		os.Remove(tmpName)
		fs.eio.Add(1)
		return injectedErr(fsEIO, OpRename, path)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if synced {
		fs.markDurable(path, int64(len(data)))
	} else {
		// Renamed but never synced: on a crash the new image tears back
		// to a deterministic prefix (the pages that happened to reach the
		// platter before the cache died).
		fs.markDirty(path, int64(h%uint64(len(data)+1)), false)
	}
	if crashing && point == CrashAfterRename {
		return fs.crash()
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is advisory on some filesystems; a failure does
		// not undo an otherwise complete write.
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile reads path whole, injecting EIO read faults. A nil plane is
// os.ReadFile.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	if fs == nil {
		return os.ReadFile(path)
	}
	if fs.crashed.Load() {
		return nil, ErrCrash
	}
	fs.reads.Add(1)
	if class, _ := fs.verdict(OpRead, path); class == fsEIO {
		fs.eio.Add(1)
		return nil, injectedErr(fsEIO, OpRead, path)
	}
	return os.ReadFile(path)
}

// Append writes b at f's current offset (the ledger's append path),
// injecting write faults. A faulted append leaves a partial write in
// the file — exactly what a real short write does — and returns the
// error; the caller owns rollback (truncate to the pre-write offset)
// before retrying. A nil plane is f.Write.
func (fs *FS) Append(f *os.File, path string, b []byte) (int, error) {
	if fs == nil {
		return f.Write(b)
	}
	if fs.crashed.Load() {
		return 0, ErrCrash
	}
	class, h := fs.verdict(OpWrite, path)
	switch class {
	case fsENOSPC, fsTorn:
		n := 0
		if len(b) > 0 {
			n, _ = f.Write(b[:h%uint64(len(b))])
		}
		if class == fsENOSPC {
			fs.enospc.Add(1)
		} else {
			fs.torn.Add(1)
		}
		return n, injectedErr(class, OpWrite, path)
	}
	return f.Write(b)
}

// Sync fsyncs f, injecting EIO and silent-drop faults and consuming the
// scheduled crash stream (fsyncs are persist points too: a cut here
// lands between a ledger batch's data and its head rewrite). A nil
// plane is f.Sync.
func (fs *FS) Sync(f *os.File, path string) error {
	if fs == nil {
		return f.Sync()
	}
	if fs.crashed.Load() {
		return ErrCrash
	}
	point, _, crashing := fs.crashAt(path, false)
	if crashing && point < CrashAfterSync {
		// The cut lands before the fsync completes: unsynced data is
		// still dirty and dies with the page cache.
		fs.markDirtyIfUnknown(f, path)
		return fs.crash()
	}
	switch class, _ := fs.verdict(OpSync, path); class {
	case fsEIO:
		fs.eio.Add(1)
		return injectedErr(fsEIO, OpSync, path)
	case fsFsyncDrop:
		fs.fsyncDrops.Add(1)
		fs.markDirtyIfUnknown(f, path)
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if st, err := f.Stat(); err == nil {
		fs.markDurable(path, st.Size())
	}
	if crashing {
		return fs.crash()
	}
	return nil
}

// markDirtyIfUnknown marks f's path dirty, initializing the durable
// length to a deterministic prefix when the plane has never seen a real
// sync on it (the pre-session bytes were durable; we can't know where
// the boundary is, so the hash picks one reproducibly).
func (fs *FS) markDirtyIfUnknown(f *os.File, path string) {
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	fs.mu.Lock()
	if _, ok := fs.durable[path]; !ok {
		h := mix(uint64(fs.spec.Seed), 0xd1f7, baseHash(path), uint64(size))
		fs.durable[path] = int64(h % uint64(size+1))
	}
	fs.dirty[path] = true
	fs.mu.Unlock()
}

// baseHash hashes a path's base name (FNV-1a); verdict streams must not
// depend on the ever-changing temp directories test runs live in.
func baseHash(path string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range []byte(filepath.Base(path)) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}
