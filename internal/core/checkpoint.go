package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

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
		TopoHash:      topologyHash(e.Sys.Top),
	}
}

// FingerprintHex returns a stable hex digest of the engine's
// configuration fingerprint — the same quantity checkpoint restores
// validate (dt, cutoff, mesh, fixed-point quanta, box, topology hash).
// The run ledger records it in its genesis record, so an auditor can
// prove a replay was configured identically before comparing state
// digests.
func (e *Engine) FingerprintHex() string {
	fp := e.fingerprint()
	h := fnv.New64a()
	// configFingerprint is fixed-size (see ckptFingerprintLen), so the
	// binary encoding — and therefore this digest — is stable.
	if err := binary.Write(h, binary.LittleEndian, fp); err != nil {
		panic(err) // unreachable: fixed-size struct of scalar fields
	}
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

// WriteCheckpoint serializes the dynamic state (positions, velocities,
// current forces, step counter) plus the configuration fingerprint,
// and appends a CRC32 over everything written.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	var body bytes.Buffer
	bw := bufio.NewWriter(&body)
	hdr := []uint32{checkpointMagic, checkpointVersion, uint32(len(e.Pos))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, e.fingerprint()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(e.step)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, e.longRangeEnergy); err != nil {
		return err
	}
	for _, p := range e.Pos {
		if err := binary.Write(bw, binary.LittleEndian, [3]int32{int32(p.X), int32(p.Y), int32(p.Z)}); err != nil {
			return err
		}
	}
	for _, v := range e.Vel {
		if err := binary.Write(bw, binary.LittleEndian, [3]int64{v.X, v.Y, v.Z}); err != nil {
			return err
		}
	}
	for _, f := range e.fShort {
		if err := binary.Write(bw, binary.LittleEndian, [3]int64{f.X, f.Y, f.Z}); err != nil {
			return err
		}
	}
	for _, f := range e.fLong {
		if err := binary.Write(bw, binary.LittleEndian, [3]int64{f.X, f.Y, f.Z}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(body.Bytes())
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc)
}

// RestoreCheckpoint loads state written by WriteCheckpoint into an
// engine constructed over the same system and configuration, then
// rebuilds the (position-derived) spatial assignment.
//
// The file is fully validated — version, length, checksum, and
// configuration fingerprint — before any engine field is touched, so a
// failed restore leaves the engine exactly as it was.
func (e *Engine) RestoreCheckpoint(r io.Reader) error {
	br := bufio.NewReader(r)
	var magicVer [2]uint32
	for i := range magicVer {
		if err := binary.Read(br, binary.LittleEndian, &magicVer[i]); err != nil {
			return fmt.Errorf("%w: short header: %v", ErrCheckpointTruncated, err)
		}
	}
	if magicVer[0] != checkpointMagic {
		return fmt.Errorf("%w: %#x", ErrCheckpointMagic, magicVer[0])
	}
	if magicVer[1] != checkpointVersion {
		return fmt.Errorf("%w: %d", ErrCheckpointVersion, magicVer[1])
	}
	return e.restoreV2(br)
}

func (e *Engine) restoreV2(br *bufio.Reader) error {
	// Read the remainder of the file, then validate everything before
	// decoding into live engine state.
	rest, err := io.ReadAll(br)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	expect := (ckptHeaderLen - 8) + ckptFingerprintLen + 8 + 8 +
		len(e.Pos)*ckptPerAtomLen + ckptCRCLen
	if len(rest) < expect {
		// Could be a truncated file for our engine, or a complete file
		// for a smaller system; disambiguate via the atom count if we
		// got that far.
		if len(rest) >= 4 {
			if n := binary.LittleEndian.Uint32(rest[:4]); int(n) != len(e.Pos) {
				return fmt.Errorf("%w: checkpoint has %d atoms, engine %d",
					ErrCheckpointConfig, n, len(e.Pos))
			}
		}
		return fmt.Errorf("%w: %d bytes, want %d", ErrCheckpointTruncated,
			len(rest)+8, expect+8)
	}
	if len(rest) > expect {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, len(rest)-expect)
	}
	// CRC covers magic+version (already consumed) plus everything up to
	// the trailer.
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(pre[4:], checkpointVersion)
	crc := crc32.ChecksumIEEE(pre[:])
	crc = crc32.Update(crc, crc32.IEEETable, rest[:len(rest)-ckptCRCLen])
	stored := binary.LittleEndian.Uint32(rest[len(rest)-ckptCRCLen:])
	if crc != stored {
		return fmt.Errorf("%w: crc %#x, stored %#x", ErrCheckpointCorrupt, crc, stored)
	}
	body := bytes.NewReader(rest[:len(rest)-ckptCRCLen])
	var natoms uint32
	if err := binary.Read(body, binary.LittleEndian, &natoms); err != nil {
		return err
	}
	if int(natoms) != len(e.Pos) {
		return fmt.Errorf("%w: checkpoint has %d atoms, engine %d",
			ErrCheckpointConfig, natoms, len(e.Pos))
	}
	var fp configFingerprint
	if err := binary.Read(body, binary.LittleEndian, &fp); err != nil {
		return err
	}
	if want := e.fingerprint(); fp != want {
		return fmt.Errorf("%w: checkpoint %+v, engine %+v", ErrCheckpointConfig, fp, want)
	}
	var step int64
	if err := binary.Read(body, binary.LittleEndian, &step); err != nil {
		return err
	}
	var lre float64
	if err := binary.Read(body, binary.LittleEndian, &lre); err != nil {
		return err
	}
	// Decode the per-atom arrays into scratch first, so the engine is
	// untouched on any failure (none is expected past the CRC, but the
	// invariant is cheap to keep).
	pos := make([]fixp.Vec3, len(e.Pos))
	vel := make([]Vel3, len(e.Vel))
	fShort := make([]Force3, len(e.fShort))
	fLong := make([]Force3, len(e.fLong))
	for i := range pos {
		var p [3]int32
		if err := binary.Read(body, binary.LittleEndian, &p); err != nil {
			return err
		}
		pos[i] = fixp.Vec3{X: fixp.F32(p[0]), Y: fixp.F32(p[1]), Z: fixp.F32(p[2])}
	}
	for i := range vel {
		var v [3]int64
		if err := binary.Read(body, binary.LittleEndian, &v); err != nil {
			return err
		}
		vel[i] = Vel3{X: v[0], Y: v[1], Z: v[2]}
	}
	for i := range fShort {
		var f [3]int64
		if err := binary.Read(body, binary.LittleEndian, &f); err != nil {
			return err
		}
		fShort[i] = Force3{X: f[0], Y: f[1], Z: f[2]}
	}
	for i := range fLong {
		var f [3]int64
		if err := binary.Read(body, binary.LittleEndian, &f); err != nil {
			return err
		}
		fLong[i] = Force3{X: f[0], Y: f[1], Z: f[2]}
	}
	copy(e.Pos, pos)
	copy(e.Vel, vel)
	copy(e.fShort, fShort)
	copy(e.fLong, fLong)
	e.longRangeEnergy = lre
	e.step = int(step)
	// A step-0 image may predate the initial force evaluation (the
	// supervisor's baseline): the next Step recomputes it.
	e.primed = false
	e.migrate(false)
	return nil
}
