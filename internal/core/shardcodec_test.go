package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"anton/internal/fixp"
)

// Codec tests: the compressed wire frames must be lossless for every bit
// pattern — the streaming pipeline's bitwise-trajectory contract rides on
// prev + (cur - prev) == cur holding under modular wraparound, not just
// for "reasonable" coordinates.

// TestCodecRoundTrip drives both codecs with seeded random payloads,
// including extreme values chosen to wrap the fixed-point subtraction,
// and asserts exact reconstruction plus clean rejection of truncation.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	extremes32 := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	extremes64 := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	pick32 := func() fixp.F32 {
		if rng.Intn(4) == 0 {
			return fixp.F32(extremes32[rng.Intn(len(extremes32))])
		}
		return fixp.F32(rng.Uint32())
	}
	pick64 := func() int64 {
		if rng.Intn(4) == 0 {
			return extremes64[rng.Intn(len(extremes64))]
		}
		return int64(rng.Uint64())
	}

	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)

		// Position codec: decode applies predictor residuals onto the
		// receiver's copy of the sender's (snapshot, displacement) state,
		// so seed both sides identically — including a random displacement
		// history — and check the receiver lands exactly on cur.
		prev := make([]fixp.Vec3, n)
		prevDelta := make([]fixp.Vec3, n)
		cur := make([]fixp.Vec3, n)
		lpos := make([]fixp.Vec3, n)
		ldelta := make([]fixp.Vec3, n)
		atoms := make([]int32, n)
		for i := 0; i < n; i++ {
			prev[i] = fixp.Vec3{X: pick32(), Y: pick32(), Z: pick32()}
			prevDelta[i] = fixp.Vec3{X: pick32(), Y: pick32(), Z: pick32()}
			cur[i] = fixp.Vec3{X: pick32(), Y: pick32(), Z: pick32()}
			lpos[i] = prev[i]
			ldelta[i] = prevDelta[i]
			atoms[i] = int32(i)
		}
		senderPrev := append([]fixp.Vec3(nil), prev...)
		senderDelta := append([]fixp.Vec3(nil), prevDelta...)
		frame := appendPosFrame(nil, cur, senderPrev, senderDelta)
		if err := decodePosFrame(frame, atoms, lpos, ldelta); err != nil {
			t.Fatalf("trial %d: decodePosFrame: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if lpos[i] != cur[i] {
				t.Fatalf("trial %d: position %d round-trips to %+v, want %+v (prev %+v)",
					trial, i, lpos[i], cur[i], prev[i])
			}
			if senderPrev[i] != cur[i] {
				t.Fatalf("trial %d: sender snapshot %d not advanced to cur", trial, i)
			}
			if ldelta[i] != senderDelta[i] {
				t.Fatalf("trial %d: displacement state diverged at %d: receiver %+v, sender %+v",
					trial, i, ldelta[i], senderDelta[i])
			}
		}
		if n > 0 {
			if err := decodePosFrame(frame[:len(frame)-1], atoms, lpos, ldelta); err != errShortFrame {
				t.Fatalf("trial %d: truncated position frame: got %v, want errShortFrame", trial, err)
			}
			if err := decodePosFrame(append(append([]byte(nil), frame...), 0), atoms, lpos, ldelta); err != errShortFrame {
				t.Fatalf("trial %d: padded position frame: got %v, want errShortFrame", trial, err)
			}
		}

		// Force codec: no delta base; every int64 bit pattern must survive.
		forces := make([]Force3, n)
		for i := range forces {
			forces[i] = Force3{X: pick64(), Y: pick64(), Z: pick64()}
		}
		ff := appendForceFrame(nil, forces)
		got := make([]Force3, n)
		if err := decodeForceFrame(ff, n, func(i int, f Force3) { got[i] = f }); err != nil {
			t.Fatalf("trial %d: decodeForceFrame: %v", trial, err)
		}
		for i := range forces {
			if got[i] != forces[i] {
				t.Fatalf("trial %d: force %d round-trips to %+v, want %+v", trial, i, got[i], forces[i])
			}
		}
		if n > 0 {
			if err := decodeForceFrame(ff[:len(ff)-1], n, func(int, Force3) {}); err != errShortFrame {
				t.Fatalf("trial %d: truncated force frame: got %v, want errShortFrame", trial, err)
			}
		}
	}
}

// TestCodecDeltaChaining: a multi-exchange sequence where each frame's
// base is the previous frame's payload — the receiver must track the
// sender exactly through an arbitrary walk, since this is how the
// pipeline uses the codec between rebuildViews resets.
func TestCodecDeltaChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 16
	senderPrev := make([]fixp.Vec3, n)
	senderDelta := make([]fixp.Vec3, n)
	cur := make([]fixp.Vec3, n)
	lpos := make([]fixp.Vec3, n)   // receiver's copies, start equal to base
	ldelta := make([]fixp.Vec3, n) // receiver's displacement state
	atoms := make([]int32, n)
	for i := range atoms {
		atoms[i] = int32(i)
	}
	var frame []byte
	for ex := 0; ex < 50; ex++ {
		for i := 0; i < n; i++ {
			// Mostly near-constant-velocity walks (the case the predictor
			// compresses), with occasional full-range jumps to force
			// wraparound residuals.
			if rng.Intn(10) == 0 {
				cur[i] = fixp.Vec3{X: fixp.F32(rng.Uint32()), Y: fixp.F32(rng.Uint32()), Z: fixp.F32(rng.Uint32())}
			} else {
				cur[i].X += fixp.F32(rng.Intn(2049) - 1024)
				cur[i].Y += fixp.F32(rng.Intn(2049) - 1024)
				cur[i].Z += fixp.F32(rng.Intn(2049) - 1024)
			}
		}
		frame = appendPosFrame(frame[:0], cur, senderPrev, senderDelta)
		if err := decodePosFrame(frame, atoms, lpos, ldelta); err != nil {
			t.Fatalf("exchange %d: %v", ex, err)
		}
		for i := 0; i < n; i++ {
			if lpos[i] != cur[i] {
				t.Fatalf("exchange %d: receiver drifted at atom %d: %+v want %+v", ex, i, lpos[i], cur[i])
			}
		}
	}
}

// Fuzz targets for the one wire format shards exchange. Each input is
// used twice: as a hostile frame (decoding arbitrary bytes must fail
// cleanly — errShortFrame or nothing, never a panic or an index out of
// range) and as a payload (every bit pattern, wraparound included, must
// survive encode → decode, and the frame must reject truncation and
// trailing bytes). The seeds are the extremes TestCodecRoundTrip draws
// from and a TestCodecDeltaChaining-style small walk.

func fuzzSeeds(f *testing.F) {
	var extremes, walk []byte
	for _, v := range []uint64{0, 1, math.MaxUint64, math.MaxInt64, 1 << 63, math.MaxInt32, 1 << 31, math.MaxUint32, math.MaxInt64 - 1} {
		extremes = binary.LittleEndian.AppendUint64(extremes, v)
	}
	for i := uint32(0); i < 36; i++ {
		walk = binary.LittleEndian.AppendUint32(walk, 1<<20+i*1024)
	}
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte{0x80}, uint8(1))                                                       // unterminated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(1)) // varint overflow
	f.Add(extremes, uint8(3))
	f.Add(walk, uint8(4))
}

func FuzzPosFrame(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		atoms := make([]int32, n)
		for i := range atoms {
			atoms[i] = int32(i)
		}
		if err := decodePosFrame(data, atoms, make([]fixp.Vec3, n), make([]fixp.Vec3, n)); err != nil && err != errShortFrame {
			t.Fatalf("hostile frame: %v", err)
		}

		// Payload view: 36-byte records of (prev, prevDelta, cur).
		vec := func(b []byte) fixp.Vec3 {
			return fixp.Vec3{
				X: fixp.F32(binary.LittleEndian.Uint32(b)),
				Y: fixp.F32(binary.LittleEndian.Uint32(b[4:])),
				Z: fixp.F32(binary.LittleEndian.Uint32(b[8:])),
			}
		}
		m := len(data) / 36
		prev, prevDelta, cur := make([]fixp.Vec3, m), make([]fixp.Vec3, m), make([]fixp.Vec3, m)
		atoms = atoms[:0]
		for i := 0; i < m; i++ {
			r := data[i*36:]
			prev[i], prevDelta[i], cur[i] = vec(r), vec(r[12:]), vec(r[24:])
			atoms = append(atoms, int32(i))
		}
		lpos := append([]fixp.Vec3(nil), prev...)
		ldelta := append([]fixp.Vec3(nil), prevDelta...)
		frame := appendPosFrame(nil, cur, prev, prevDelta)
		if err := decodePosFrame(frame, atoms, lpos, ldelta); err != nil {
			t.Fatalf("own frame: %v", err)
		}
		for i := range cur {
			if lpos[i] != cur[i] || ldelta[i] != prevDelta[i] {
				t.Fatalf("atom %d round-trips to %+v (delta %+v), want %+v (delta %+v)", i, lpos[i], ldelta[i], cur[i], prevDelta[i])
			}
		}
		if m > 0 {
			if err := decodePosFrame(frame[:len(frame)-1], atoms, lpos, ldelta); err != errShortFrame {
				t.Fatalf("truncated frame: got %v, want errShortFrame", err)
			}
			if err := decodePosFrame(append(frame, 0), atoms, lpos, ldelta); err != errShortFrame {
				t.Fatalf("trailing byte: got %v, want errShortFrame", err)
			}
		}
	})
}

func FuzzForceFrame(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		if err := decodeForceFrame(data, int(n), func(int, Force3) {}); err != nil && err != errShortFrame {
			t.Fatalf("hostile frame: %v", err)
		}

		// Payload view: 24-byte int64 triples.
		forces := make([]Force3, len(data)/24)
		for i := range forces {
			r := data[i*24:]
			forces[i] = Force3{
				X: int64(binary.LittleEndian.Uint64(r)),
				Y: int64(binary.LittleEndian.Uint64(r[8:])),
				Z: int64(binary.LittleEndian.Uint64(r[16:])),
			}
		}
		frame := appendForceFrame(nil, forces)
		got := make([]Force3, len(forces))
		if err := decodeForceFrame(frame, len(forces), func(i int, v Force3) { got[i] = v }); err != nil {
			t.Fatalf("own frame: %v", err)
		}
		for i := range forces {
			if got[i] != forces[i] {
				t.Fatalf("force %d round-trips to %+v, want %+v", i, got[i], forces[i])
			}
		}
		if len(forces) > 0 {
			if err := decodeForceFrame(frame[:len(frame)-1], len(forces), func(int, Force3) {}); err != errShortFrame {
				t.Fatalf("truncated frame: got %v, want errShortFrame", err)
			}
			if err := decodeForceFrame(append(frame, 0), len(forces), func(int, Force3) {}); err != errShortFrame {
				t.Fatalf("trailing byte: got %v, want errShortFrame", err)
			}
		}
	})
}
