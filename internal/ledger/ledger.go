// Package ledger is the engine's provenance layer: an append-only,
// hash-chained record of everything that shaped a simulation's
// trajectory — the configuration it started from, cadenced state
// digests along the way, every checkpoint written, the fault campaigns
// it survived, and the health alerts it latched.
//
// The engine's determinism (a trajectory is a pure function of system,
// config and seed, bitwise invariant under worker count, shard count
// and checkpoint round-trips) is what makes such a ledger *verifiable*
// rather than merely descriptive: any committed prefix can be replayed
// from the nearest recorded checkpoint and must reproduce the recorded
// state digests bit for bit. The ledger turns that test-time property
// into an operator-auditable contract for million-step production runs.
//
// Structure (one JSON record per line, the audit-log idiom):
//
//   - a record's identity is the SHA-256 of its raw line bytes (hashing
//     the bytes, not a re-serialization, is what makes every byte of
//     the file load-bearing — there is no canonicalization step a flip
//     could hide behind). Every record carries Prev, the previous
//     line's hash, so flipping any byte of any record breaks the chain
//     at its successor;
//   - every Batch records, a commit record seals them under one Merkle
//     root (leaves = raw-line hashes), and commit records additionally
//     chain their roots (PrevRoot), so a million-step run pays one
//     fsync per batch rather than per record while any single record
//     stays independently provable against its batch root;
//   - commits are durable: the data file is fsynced and a tiny head
//     sidecar (<path>.head) is rewritten with the same temp+fsync+
//     rename discipline as checkpoints ((*faults.FS).WriteFile),
//     pinning the last committed record against torn tails.
//
// A crash can tear at most the uncommitted tail after the last commit;
// verification reports that tail as uncommitted rather than corrupt.
// Corruption anywhere inside the committed prefix fails verification
// and names the offending record.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"anton/internal/faults"
)

// Kind tags a record's payload.
type Kind string

const (
	// KindGenesis opens a ledger: run metadata, the job/run spec that
	// reproduces the trajectory, and the engine config fingerprint.
	KindGenesis Kind = "genesis"
	// KindDigest is a cadenced trajectory digest (core.Sim.StateDigest).
	KindDigest Kind = "digest"
	// KindCheckpoint records a durable checkpoint write: file name, the
	// checkpoint's own trailing CRC32, and the state digest at that step.
	KindCheckpoint Kind = "checkpoint"
	// KindFaults records an attached fault campaign (spec + seed) — the
	// campaign is replayable from the spec by construction.
	KindFaults Kind = "faults"
	// KindRecovery records one completed crash-recovery cycle.
	KindRecovery Kind = "recovery"
	// KindAlert records a latched health-watchdog alert.
	KindAlert Kind = "alert"
	// KindResume records a restart: the run re-opened the ledger and
	// continued from a restored checkpoint.
	KindResume Kind = "resume"
	// KindCommit seals the batch of records since the previous commit
	// under a Merkle root; roots chain through PrevRoot.
	KindCommit Kind = "commit"
)

// Genesis is the opening record's payload.
type Genesis struct {
	// Spec is the opaque run/job description (e.g. a service.JobSpec);
	// replay audits rebuild the simulation from it.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Fingerprint is the engine configuration fingerprint (hex) — the
	// same quantity checkpoint restores validate against.
	Fingerprint string `json:"fingerprint,omitempty"`
	// System and Atoms identify the molecular system for human readers.
	System string `json:"system,omitempty"`
	Atoms  int    `json:"atoms,omitempty"`
}

// Checkpoint is a checkpoint-write record's payload.
type Checkpoint struct {
	// File is the checkpoint's base name (ledger-relative: the file
	// lives next to the ledger, typically in the same job directory).
	File string `json:"file"`
	// CRC is the checkpoint's own trailing CRC32 (format v2).
	CRC uint32 `json:"crc"`
	// Digest is the state digest at the checkpointed step.
	Digest string `json:"digest,omitempty"`
}

// Faults is a fault-campaign record's payload.
type Faults struct {
	Spec string `json:"spec"`
	Seed int64  `json:"seed"`
}

// Recovery is a crash-recovery record's payload. (Ledgers written before
// crash adoption was removed may carry an "adopted" list here; it decodes
// as an ignored field and stays covered by the record's hash.)
type Recovery struct {
	DetectedStep int     `json:"detected_step"`
	RestoredStep int     `json:"restored_step"`
	Crashed      []int32 `json:"crashed,omitempty"`
	Spurious     bool    `json:"spurious,omitempty"`
}

// Alert is a latched health alert's payload.
type Alert struct {
	Monitor   string  `json:"monitor"`
	Severity  string  `json:"severity"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message,omitempty"`
}

// Resume is a restart record's payload.
type Resume struct {
	RestoredStep int `json:"restored_step"`
	Resumes      int `json:"resumes"`
}

// Commit is a batch-commit record's payload.
type Commit struct {
	// Root is the Merkle root (hex) over the hashes of records
	// [First, Last] (commit records excluded — each batch is the
	// records appended since the previous commit).
	Root  string `json:"root"`
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
	// PrevRoot chains the commit roots: the previous commit's Root, or
	// "" for the first commit. An auditor holding only the commit
	// records can verify the root chain without the full ledger.
	PrevRoot string `json:"prev_root,omitempty"`
}

// Record is one ledger entry. Exactly one payload pointer is non-nil
// (KindDigest carries only the flat Digest field). A record's identity
// hash is the SHA-256 of its raw line bytes (newline excluded) — it is
// not stored in the record itself; Prev is the previous line's identity
// hash (the genesis record's Prev is "").
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// Step is the engine step the record describes (0 for records that
	// precede stepping, e.g. genesis and faults).
	Step int64 `json:"step,omitempty"`

	// Digest is the state digest (%016x of core.Sim.StateDigest) for
	// digest records.
	Digest string `json:"digest,omitempty"`

	Genesis    *Genesis    `json:"genesis,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	Faults     *Faults     `json:"faults,omitempty"`
	Recovery   *Recovery   `json:"recovery,omitempty"`
	Alert      *Alert      `json:"alert,omitempty"`
	Resume     *Resume     `json:"resume,omitempty"`
	Commit     *Commit     `json:"commit,omitempty"`

	Prev string `json:"prev,omitempty"`
}

// hashLine computes a record's identity: SHA-256 over its raw line
// bytes, trailing newline excluded.
func hashLine(line []byte) string {
	sum := sha256.Sum256(line)
	return hex.EncodeToString(sum[:])
}

// Stats counts a writer's output (monotonic; feeds the obs counters).
type Stats struct {
	Records int64 // records appended (commits included)
	Commits int64 // batch commits sealed
	Bytes   int64 // bytes appended to the data file
}

// Writer appends to one ledger file. Safe for concurrent use (the
// recovery supervisor appends from its own goroutine while the step
// loop appends digests).
//
// Durability model: Append buffers through the OS; Commit (reached
// every Batch records, at Close, or explicitly) writes the commit
// record, fsyncs the data file, and atomically rewrites the head
// sidecar. Records after the last commit are readable but uncommitted —
// a crash may tear them, and verification treats them as such.
type Writer struct {
	mu sync.Mutex

	f    *os.File
	path string
	fs   *faults.FS // optional storage fault plane (nil = plain I/O)

	batch   int
	pending []string // hashes of records since the last commit

	seq      uint64
	prevHash string
	prevRoot string

	stats Stats
	err   error // first hard error; the writer is dead once set
}

// Options tunes a Writer.
type Options struct {
	// Batch is the Merkle batch size: a commit record is written every
	// Batch records. 1 is "direct" mode (every record individually
	// committed and fsynced — the expensive baseline the benchmark
	// compares against); 0 selects DefaultBatch.
	Batch int

	// FS routes the writer's appends, fsyncs and head rewrites through a
	// storage fault plane (nil = plain I/O). Injected transient faults
	// are retried within the plane's liveness budget, with partial
	// appends rolled back first; an injected crash kills the writer like
	// any hard error.
	FS *faults.FS
}

// DefaultBatch is the Merkle batch size when Options.Batch is 0: large
// enough that a long run's fsync cost is amortized to noise, small
// enough that a crash loses at most a few records of provenance (the
// trajectory itself loses nothing — checkpoints are durable
// independently).
const DefaultBatch = 64

// Head is the sidecar pinning the last commit. It is rewritten
// atomically at every commit, so even if the append-only data file is
// torn by a crash, the durable committed prefix is unambiguous.
type Head struct {
	Seq  uint64 `json:"seq"`  // seq of the last commit record
	Hash string `json:"hash"` // its hash
	Root string `json:"root"` // its Merkle root
}

// HeadPath returns the sidecar path for a ledger path.
func HeadPath(path string) string { return path + ".head" }

// Create creates a new ledger at path (truncating any previous one,
// including a stale head sidecar) and returns a writer positioned at
// the genesis record — the caller appends that first.
func Create(path string, opts Options) (*Writer, error) {
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: create %s: %w", path, err)
	}
	if err := os.Remove(HeadPath(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Close()
		return nil, fmt.Errorf("ledger: clearing stale head: %w", err)
	}
	return &Writer{f: f, path: path, fs: opts.FS, batch: opts.Batch}, nil
}

// Open re-opens an existing ledger for appending — the resume path. It
// audits the whole file first (chain, Merkle roots, head agreement);
// a damaged ledger refuses to open rather than silently extending a
// broken chain. Uncommitted complete records after the last commit are
// kept (they re-commit with the next batch); a torn final line is
// truncated away. The returned writer continues the chain from the last
// record.
func Open(path string, opts Options) (*Writer, error) {
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	rep, err := VerifyFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: audit failed: %w", path, err)
	}
	// Truncate a torn tail so the append continues from a clean record
	// boundary. rep.GoodBytes is the byte length of the complete-record
	// prefix.
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	if err := f.Truncate(rep.GoodBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:        f,
		path:     path,
		fs:       opts.FS,
		batch:    opts.Batch,
		seq:      rep.Records,
		prevHash: rep.TipHash,
		prevRoot: rep.TipRoot,
	}
	// Records after the last commit re-enter the pending batch so the
	// next commit seals them.
	w.pending = append(w.pending, rep.UncommittedHashes...)
	return w, nil
}

// Stats returns the monotonic output counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Err returns the writer's first hard error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// append writes one record (chain fields filled here) and, when the
// pending batch reaches the batch size, seals it with a commit.
func (w *Writer) append(r Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.appendLocked(r); err != nil {
		return err
	}
	if len(w.pending) >= w.batch {
		return w.commitLocked()
	}
	return nil
}

func (w *Writer) appendLocked(r Record) error {
	r.Seq = w.seq
	r.Prev = w.prevHash
	b, err := json.Marshal(r)
	if err != nil {
		return w.fail(err)
	}
	h := hashLine(b)
	b = append(b, '\n')
	if err := w.write(b); err != nil {
		return w.fail(fmt.Errorf("ledger: appending record %d: %w", r.Seq, err))
	}
	w.seq++
	w.prevHash = h
	w.stats.Records++
	w.stats.Bytes += int64(len(b))
	if r.Kind != KindCommit {
		w.pending = append(w.pending, h)
	}
	return nil
}

// commitLocked seals the pending batch: Merkle root over the pending
// record hashes, a commit record chained over the previous root, fsync,
// and an atomic head rewrite.
func (w *Writer) commitLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	leaves := make([][]byte, len(w.pending))
	for i, hx := range w.pending {
		b, err := hex.DecodeString(hx)
		if err != nil {
			return w.fail(err)
		}
		leaves[i] = b
	}
	root := hex.EncodeToString(MerkleRoot(leaves))
	first := w.seq - uint64(len(w.pending))
	rec := Record{
		Kind: KindCommit,
		Commit: &Commit{
			Root:     root,
			First:    first,
			Last:     w.seq - 1,
			PrevRoot: w.prevRoot,
		},
	}
	if err := w.appendLocked(rec); err != nil {
		return err
	}
	if err := w.sync(); err != nil {
		return w.fail(fmt.Errorf("ledger: fsync: %w", err))
	}
	head := Head{Seq: w.seq - 1, Hash: w.prevHash, Root: root}
	hb, err := json.Marshal(head)
	if err != nil {
		return w.fail(err)
	}
	if err := w.writeHead(append(hb, '\n')); err != nil {
		return w.fail(fmt.Errorf("ledger: writing head: %w", err))
	}
	w.prevRoot = root
	w.pending = w.pending[:0]
	w.stats.Commits++
	return nil
}

// Commit seals any pending records now (no-op when none are pending).
func (w *Writer) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.commitLocked()
}

// Close commits any pending records and closes the file. The writer is
// unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	cerr := w.err
	if cerr == nil {
		cerr = w.commitLocked()
	}
	if err := w.f.Close(); err != nil && cerr == nil {
		cerr = err
	}
	w.f = nil
	if w.err == nil {
		w.err = errors.New("ledger: writer closed")
	}
	return cerr
}

// fail records the writer's first hard error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// AppendGenesis writes the opening record.
func (w *Writer) AppendGenesis(g Genesis) error {
	return w.append(Record{Kind: KindGenesis, Genesis: &g})
}

// AppendDigest writes a cadenced trajectory-digest record.
func (w *Writer) AppendDigest(step int64, digest uint64) error {
	return w.append(Record{Kind: KindDigest, Step: step, Digest: fmt.Sprintf("%016x", digest)})
}

// AppendCheckpoint records a durable checkpoint write.
func (w *Writer) AppendCheckpoint(step int64, file string, crc uint32, digest uint64) error {
	return w.append(Record{Kind: KindCheckpoint, Step: step, Checkpoint: &Checkpoint{
		File: filepath.Base(file), CRC: crc, Digest: fmt.Sprintf("%016x", digest),
	}})
}

// AppendFaults records an attached fault campaign.
func (w *Writer) AppendFaults(step int64, spec string, seed int64) error {
	return w.append(Record{Kind: KindFaults, Step: step, Faults: &Faults{Spec: spec, Seed: seed}})
}

// AppendRecovery records one completed crash-recovery cycle.
func (w *Writer) AppendRecovery(r Recovery) error {
	return w.append(Record{Kind: KindRecovery, Step: int64(r.DetectedStep), Recovery: &r})
}

// AppendAlert records a latched health alert.
func (w *Writer) AppendAlert(step int64, a Alert) error {
	return w.append(Record{Kind: KindAlert, Step: step, Alert: &a})
}

// AppendResume records a restart from a restored checkpoint.
func (w *Writer) AppendResume(restoredStep, resumes int) error {
	return w.append(Record{Kind: KindResume, Step: int64(restoredStep),
		Resume: &Resume{RestoredStep: restoredStep, Resumes: resumes}})
}

// write appends b to the data file through the fault plane. An injected
// partial append is rolled back (truncate to the pre-write offset) and
// retried within the plane's liveness budget — the recovery any real
// writer performs after a short write. A crash, or exhausting the
// budget, surfaces as the writer's hard error.
func (w *Writer) write(b []byte) error {
	if w.fs == nil {
		_, err := w.f.Write(b)
		return err
	}
	off, serr := w.f.Seek(0, io.SeekCurrent)
	var err error
	for attempt := 0; attempt < w.fs.RetryBudget(); attempt++ {
		if _, err = w.fs.Append(w.f, w.path, b); err == nil {
			return nil
		}
		if serr == nil {
			if terr := w.f.Truncate(off); terr != nil {
				return err
			}
			if _, terr := w.f.Seek(off, io.SeekStart); terr != nil {
				return err
			}
		}
		if faults.IsCrash(err) || !faults.IsInjected(err) {
			return err
		}
	}
	return err
}

// sync fsyncs the data file through the fault plane, retrying injected
// EIO within the liveness budget. A silently dropped fsync reports
// success here — only a later crash exposes it, which is exactly the
// hole the head sidecar + verification close.
func (w *Writer) sync() error {
	if w.fs == nil {
		return w.f.Sync()
	}
	var err error
	for attempt := 0; attempt < w.fs.RetryBudget(); attempt++ {
		if err = w.fs.Sync(w.f, w.path); err == nil {
			return nil
		}
		if faults.IsCrash(err) || !faults.IsInjected(err) {
			return err
		}
	}
	return err
}

// writeHead rewrites the head sidecar atomically (temp+fsync+rename —
// the one sequence, nil plane or not), retrying injected transient
// faults.
func (w *Writer) writeHead(b []byte) error {
	var err error
	for attempt := 0; attempt < w.fs.RetryBudget(); attempt++ {
		if err = w.fs.WriteFile(HeadPath(w.path), b); err == nil {
			return nil
		}
		if faults.IsCrash(err) || !faults.IsInjected(err) {
			return err
		}
	}
	return err
}

// ReadAll decodes every complete record in r, in order, returning each
// record's identity hash (SHA-256 of its raw line bytes) alongside it.
// A torn final line — missing its newline, or newline-terminated but
// not valid JSON — is returned via torn=true rather than an error:
// that is the expected shape of a crashed append, and whether the torn
// bytes were committed is the verifier's call (via the head sidecar),
// not the reader's. goodBytes is the byte length of the complete-record
// prefix.
func ReadAll(r io.Reader) (recs []Record, hashes []string, goodBytes int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF && len(line) == 0 {
			return recs, hashes, goodBytes, false, nil
		}
		if rerr != nil && rerr != io.EOF {
			return recs, hashes, goodBytes, false, rerr
		}
		if rerr == io.EOF {
			// No trailing newline: an in-flight append the crash cut off.
			return recs, hashes, goodBytes, true, nil
		}
		body := line[:len(line)-1]
		var rec Record
		if jerr := json.Unmarshal(body, &rec); jerr != nil {
			if lastLineOf(br) {
				return recs, hashes, goodBytes, true, nil
			}
			return recs, hashes, goodBytes, false,
				fmt.Errorf("ledger: record %d: invalid JSON: %w", len(recs), jerr)
		}
		recs = append(recs, rec)
		hashes = append(hashes, hashLine(body))
		goodBytes += int64(len(line))
	}
}

// lastLineOf reports whether the reader is exhausted (the just-read
// line was the final one).
func lastLineOf(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}
