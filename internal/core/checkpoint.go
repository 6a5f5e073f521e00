package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"anton/internal/ff"
	"anton/internal/fixp"
	"anton/internal/htis"
)

// Checkpointing captures the engine's exact fixed-point state, so a
// restored run continues bitwise identically to an uninterrupted one —
// the practical payoff of the paper's determinism: Anton's months-long
// BPTI run survived restarts precisely because the state is exact
// integers, not rounding-sensitive floats.
//
// Format version 2 hardens the file against the two real-world failure
// modes of long-campaign checkpointing:
//
//   - restoring into a *differently configured* engine (changed dt,
//     cutoff, mesh size, fixed-point scales, or an edited topology)
//     silently produces a valid-looking but physically different
//     trajectory. Version 2 embeds a configuration fingerprint and
//     refuses the restore with ErrCheckpointConfig on any mismatch;
//   - torn writes and bit rot. Version 2 appends a CRC32 (IEEE) over
//     the whole preceding byte stream; truncated files fail with
//     ErrCheckpointTruncated and corrupted ones with
//     ErrCheckpointCorrupt, before any engine state is modified.
//
// Any other version, the retired version 1 included, is refused with
// ErrCheckpointVersion.

const (
	checkpointMagic   = 0x414e5443 // "ANTC"
	checkpointVersion = 2
)

// Distinct restore failures, so callers (and tests) can tell a wrong
// file from a damaged one from a configuration drift.
var (
	ErrCheckpointMagic     = errors.New("core: not a checkpoint file (bad magic)")
	ErrCheckpointVersion   = errors.New("core: unsupported checkpoint version")
	ErrCheckpointConfig    = errors.New("core: checkpoint configuration mismatch")
	ErrCheckpointCorrupt   = errors.New("core: checkpoint corrupt (checksum mismatch)")
	ErrCheckpointTruncated = errors.New("core: checkpoint truncated")
)

// configFingerprint pins every quantity that must match between the
// writing and the restoring engine for the continued trajectory to be
// bitwise identical: integration and range parameters, the fixed-point
// scale factors (a checkpoint is raw integers — reinterpreting them
// under different quanta is silent nonsense), and a hash of the
// topology the state was integrated under.
type configFingerprint struct {
	FracBits      uint32
	Mesh          uint32
	VelQuantum    float64
	ForceQuantum  float64
	ChargeQuantum float64
	Dt            float64
	Cutoff        float64
	BoxL          float64
	TopoHash      uint64
}

func (e *Engine) fingerprint() configFingerprint {
	return configFingerprint{
		FracBits:      fixp.FracBits,
		Mesh:          uint32(e.Sys.Mesh),
		VelQuantum:    VelQuantum,
		ForceQuantum:  htis.ForceQuantum,
		ChargeQuantum: ChargeQuantum,
		Dt:            e.Cfg.Dt,
		Cutoff:        e.Sys.Cutoff,
		BoxL:          e.Coder.L,
		TopoHash:      e.topoHash,
	}
}

// appendTo appends the fingerprint's fixed little-endian layout
// (ckptFingerprintLen bytes, fields in declaration order).
func (fp configFingerprint) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, fp.FracBits)
	b = le.AppendUint32(b, fp.Mesh)
	for _, f := range [...]float64{fp.VelQuantum, fp.ForceQuantum, fp.ChargeQuantum, fp.Dt, fp.Cutoff, fp.BoxL} {
		b = le.AppendUint64(b, math.Float64bits(f))
	}
	return le.AppendUint64(b, fp.TopoHash)
}

// decodeFingerprint reads the layout appendTo writes.
func decodeFingerprint(b []byte) configFingerprint {
	le := binary.LittleEndian
	f := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	return configFingerprint{
		FracBits:      le.Uint32(b),
		Mesh:          le.Uint32(b[4:]),
		VelQuantum:    f(8),
		ForceQuantum:  f(16),
		ChargeQuantum: f(24),
		Dt:            f(32),
		Cutoff:        f(40),
		BoxL:          f(48),
		TopoHash:      le.Uint64(b[56:]),
	}
}

// FingerprintHex returns a stable hex digest of the engine's
// configuration fingerprint — the same quantity checkpoint restores
// validate (dt, cutoff, mesh, fixed-point quanta, box, topology hash).
// The run ledger records it in its genesis record, so an auditor can
// prove a replay was configured identically before comparing state
// digests.
func (e *Engine) FingerprintHex() string {
	h := fnv.New64a()
	h.Write(e.fingerprint().appendTo(nil))
	return fmt.Sprintf("%016x", h.Sum64())
}

// topologyHash digests the interaction terms with FNV-1a 64. Parameter
// values are hashed as their exact IEEE-754 bit patterns: any edit to a
// force constant, charge, or connectivity changes the hash.
func topologyHash(top *ff.Topology) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi(len(top.Atoms))
	for _, a := range top.Atoms {
		wf(a.Mass)
		wf(a.Charge)
		wi(a.LJType)
	}
	wi(len(top.Bonds))
	for _, b := range top.Bonds {
		wi(b.I)
		wi(b.J)
		wf(b.R0)
		wf(b.K)
	}
	wi(len(top.Angles))
	for _, a := range top.Angles {
		wi(a.I)
		wi(a.J)
		wi(a.K)
		wf(a.Theta0)
		wf(a.KTheta)
	}
	wi(len(top.Dihedrals))
	for _, d := range top.Dihedrals {
		wi(d.I)
		wi(d.J)
		wi(d.K)
		wi(d.L)
		wi(d.N)
		wf(d.Phase)
		wf(d.KPhi)
	}
	wi(len(top.Impropers))
	for _, im := range top.Impropers {
		wi(im.I)
		wi(im.J)
		wi(im.K)
		wi(im.L)
		wf(im.Chi0)
		wf(im.KChi)
	}
	wi(len(top.Constraints))
	for _, c := range top.Constraints {
		wi(c.I)
		wi(c.J)
		wf(c.R)
	}
	wi(len(top.VSites))
	for _, v := range top.VSites {
		wi(v.Site)
		wi(v.I)
		wi(v.J)
		wi(v.K)
		wf(v.A)
		wf(v.B)
	}
	wi(len(top.Pairs14))
	for _, p := range top.Pairs14 {
		wi(p.I)
		wi(p.J)
	}
	return h.Sum64()
}

// Fixed layout sizes (bytes), used by both the writer and the
// validate-before-decode reader.
const (
	ckptHeaderLen      = 12 // magic, version, natoms (uint32 each)
	ckptFingerprintLen = 4 + 4 + 6*8 + 8
	ckptPerAtomLen     = 3*4 + 3*3*8 // pos int32 triple; vel/fShort/fLong int64 triples
	ckptCRCLen         = 4
)

// ckptLen is the length of the image of an n-atom engine: header,
// fingerprint, step and long-range energy, the per-atom arrays, CRC.
func ckptLen(n int) int {
	return ckptHeaderLen + ckptFingerprintLen + 8 + 8 + n*ckptPerAtomLen + ckptCRCLen
}

// WriteCheckpoint serializes the dynamic state (positions, velocities,
// current forces, step counter) plus the configuration fingerprint,
// and appends a CRC32 over everything written.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	_, err := w.Write(e.appendCheckpoint(nil))
	return err
}

// appendCheckpoint appends the engine's checkpoint image to b, all
// fields little-endian: magic, version, atom count, fingerprint, step,
// long-range energy, then positions, velocities, short-range and
// long-range forces per atom, and the CRC32 of everything before it.
func (e *Engine) appendCheckpoint(b []byte) []byte {
	le := binary.LittleEndian
	start := len(b)
	b = slices.Grow(b, ckptLen(len(e.Pos)))
	b = le.AppendUint32(b, checkpointMagic)
	b = le.AppendUint32(b, checkpointVersion)
	b = le.AppendUint32(b, uint32(len(e.Pos)))
	b = e.fingerprint().appendTo(b)
	b = le.AppendUint64(b, uint64(int64(e.step)))
	b = le.AppendUint64(b, math.Float64bits(e.longRangeEnergy))
	for _, p := range e.Pos {
		b = le.AppendUint32(b, uint32(p.X))
		b = le.AppendUint32(b, uint32(p.Y))
		b = le.AppendUint32(b, uint32(p.Z))
	}
	for _, v := range e.Vel {
		b = appendTriple(b, v.X, v.Y, v.Z)
	}
	for _, f := range e.fShort {
		b = appendTriple(b, f.X, f.Y, f.Z)
	}
	for _, f := range e.fLong {
		b = appendTriple(b, f.X, f.Y, f.Z)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// appendTriple appends three int64 values little-endian.
func appendTriple(b []byte, x, y, z int64) []byte {
	le := binary.LittleEndian
	return le.AppendUint64(le.AppendUint64(le.AppendUint64(b, uint64(x)), uint64(y)), uint64(z))
}

// validateImage checks a checkpoint image before anything decodes it: the
// magic and the version, then the atom count, which fixes the image's
// length, then the length and the trailing CRC32. A reader that needs a
// given count passes it as want (negative: any), and an image of another
// count is a configuration mismatch whatever its length. It returns the
// stored CRC.
func validateImage(b []byte, want int) (crc uint32, err error) {
	le := binary.LittleEndian
	if len(b) < 8 {
		return 0, fmt.Errorf("%w: short header (%d bytes)", ErrCheckpointTruncated, len(b))
	}
	if magic := le.Uint32(b); magic != checkpointMagic {
		return 0, fmt.Errorf("%w: %#x", ErrCheckpointMagic, magic)
	}
	if ver := le.Uint32(b[4:]); ver != checkpointVersion {
		return 0, fmt.Errorf("%w: %d", ErrCheckpointVersion, ver)
	}
	if len(b) < ckptHeaderLen {
		return 0, fmt.Errorf("%w: short header (%d bytes)", ErrCheckpointTruncated, len(b))
	}
	natoms := int64(le.Uint32(b[8:]))
	if want >= 0 && natoms != int64(want) {
		return 0, fmt.Errorf("%w: checkpoint has %d atoms, engine %d", ErrCheckpointConfig, natoms, want)
	}
	// In int64: a hostile count must not wrap the size where int is 32 bits.
	switch size := int64(ckptLen(0)) + natoms*ckptPerAtomLen; {
	case int64(len(b)) < size:
		return 0, fmt.Errorf("%w: %d bytes, want %d", ErrCheckpointTruncated, len(b), size)
	case int64(len(b)) > size:
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, int64(len(b))-size)
	}
	body := b[:len(b)-ckptCRCLen]
	crc = le.Uint32(b[len(body):])
	if sum := crc32.ChecksumIEEE(body); sum != crc {
		return 0, fmt.Errorf("%w: crc %#x, stored %#x", ErrCheckpointCorrupt, sum, crc)
	}
	return crc, nil
}

// RestoreCheckpoint loads state written by WriteCheckpoint into an
// engine constructed over the same system and configuration, then
// rebuilds the (position-derived) spatial assignment.
//
// The image is fully validated — version, atom count, length, checksum,
// and configuration fingerprint — before any engine field is touched, so
// a failed restore leaves the engine exactly as it was.
func (e *Engine) RestoreCheckpoint(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return e.restoreImage(b)
}

// restoreImage validates and decodes one checkpoint image.
func (e *Engine) restoreImage(b []byte) error {
	if _, err := validateImage(b, len(e.Pos)); err != nil {
		return err
	}
	le := binary.LittleEndian
	b = b[ckptHeaderLen:]
	if fp, want := decodeFingerprint(b), e.fingerprint(); fp != want {
		return fmt.Errorf("%w: checkpoint %+v, engine %+v", ErrCheckpointConfig, fp, want)
	}
	b = b[ckptFingerprintLen:]
	e.step = int(int64(le.Uint64(b)))
	e.longRangeEnergy = math.Float64frombits(le.Uint64(b[8:]))
	b = b[16:]
	for i := range e.Pos {
		e.Pos[i] = fixp.Vec3{X: fixp.F32(le.Uint32(b)), Y: fixp.F32(le.Uint32(b[4:])), Z: fixp.F32(le.Uint32(b[8:]))}
		b = b[12:]
	}
	for i := range e.Vel {
		e.Vel[i] = Vel3{X: int64(le.Uint64(b)), Y: int64(le.Uint64(b[8:])), Z: int64(le.Uint64(b[16:]))}
		b = b[24:]
	}
	for _, dst := range [][]Force3{e.fShort, e.fLong} {
		for i := range dst {
			dst[i] = Force3{X: int64(le.Uint64(b)), Y: int64(le.Uint64(b[8:])), Z: int64(le.Uint64(b[16:]))}
			b = b[24:]
		}
	}
	// A step-0 image may predate the initial force evaluation (the
	// supervisor's baseline): the next Step recomputes it.
	e.primed = false
	e.migrate(false)
	return nil
}
