package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"anton/internal/fixp"
)

// Codec tests: the wire frames must be lossless for every bit pattern —
// the shard pipeline's bitwise-trajectory contract rides on each frame
// decoding to exactly what was encoded, not just for "reasonable"
// coordinates — and self-contained, decoding the same whatever the
// receiver held before.

// TestCodecRoundTrip drives both codecs with seeded random payloads,
// including the extreme values, and asserts exact reconstruction plus
// clean rejection of truncation and trailing bytes.
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

		// Position codec: the frame of a random atom subset (in a random
		// order) must land exactly on those atoms' coordinates, and a
		// rejected frame must leave the receiver untouched.
		src := make([]fixp.Vec3, 2*n)
		for i := range src {
			src[i] = fixp.Vec3{X: pick32(), Y: pick32(), Z: pick32()}
		}
		atoms := make([]int32, n)
		for i, a := range rng.Perm(2 * n)[:n] {
			atoms[i] = int32(a)
		}
		frame := appendPosFrame(nil, src, atoms)
		if len(frame) != int(posRawBytes(n)) {
			t.Fatalf("trial %d: %d-atom position frame is %d B, want %d", trial, n, len(frame), posRawBytes(n))
		}
		dst := make([]fixp.Vec3, 2*n)
		if err := decodePosFrame(frame, atoms, dst); err != nil {
			t.Fatalf("trial %d: decodePosFrame: %v", trial, err)
		}
		for _, a := range atoms {
			if dst[a] != src[a] {
				t.Fatalf("trial %d: atom %d round-trips to %+v, want %+v", trial, a, dst[a], src[a])
			}
		}
		if n > 0 {
			clean := make([]fixp.Vec3, 2*n)
			for _, bad := range [][]byte{frame[:len(frame)-1], append(append([]byte(nil), frame...), 0)} {
				if err := decodePosFrame(bad, atoms, clean); err != errShortFrame {
					t.Fatalf("trial %d: %d-byte position frame for %d atoms: got %v, want errShortFrame", trial, len(bad), n, err)
				}
			}
			for a, p := range clean {
				if p != (fixp.Vec3{}) {
					t.Fatalf("trial %d: rejected frame wrote atom %d", trial, a)
				}
			}
		}

		// Force codec: every int64 bit pattern must survive, in a
		// one-section frame and in a refresh frame's two sections over the
		// same atoms, and decoding adds into the accumulators.
		short := make([]Force3, 2*n)
		long := make([]Force3, 2*n)
		for _, a := range atoms {
			short[a] = Force3{X: pick64(), Y: pick64(), Z: pick64()}
			long[a] = Force3{X: pick64(), Y: pick64(), Z: pick64()}
		}
		one := appendForceFrame(nil, short, atoms)
		two := appendForceFrame(append([]byte(nil), one...), long, atoms)
		gotS, gotL := make([]Force3, 2*n), make([]Force3, 2*n)
		if err := decodeForceFrame(one, atoms, gotS, nil); err != nil {
			t.Fatalf("trial %d: one-section decodeForceFrame: %v", trial, err)
		}
		if err := decodeForceFrame(two, atoms, gotS, gotL); err != nil {
			t.Fatalf("trial %d: two-section decodeForceFrame: %v", trial, err)
		}
		for _, a := range atoms {
			if want := short[a].Add(short[a]); gotS[a] != want {
				t.Fatalf("trial %d: atom %d short force sums to %+v, want %+v", trial, a, gotS[a], want)
			}
			if gotL[a] != long[a] {
				t.Fatalf("trial %d: atom %d long force round-trips to %+v, want %+v", trial, a, gotL[a], long[a])
			}
		}
		if n > 0 {
			for _, c := range []struct {
				name        string
				frame       []byte
				short, long []Force3
			}{
				{"truncated", one[:len(one)-1], gotS, nil},
				{"trailing byte", append(append([]byte(nil), one...), 0), gotS, nil},
				{"refresh frame cut at the section boundary", one, gotS, gotL},
				{"truncated refresh frame", two[:len(two)-1], gotS, gotL},
				{"refresh frame read as one section", two, gotS, nil},
			} {
				if err := decodeForceFrame(c.frame, atoms, c.short, c.long); err != errShortFrame {
					t.Fatalf("trial %d: %s: got %v, want errShortFrame", trial, c.name, err)
				}
			}
		}
	}
}

// TestCodecFramesSelfContained: over a multi-exchange walk, each frame
// alone restores the sender's positions — whatever the receiver held,
// and whichever earlier frames it missed. This is what lets a recovery,
// a migration or a dropped exchange resume with no codec state to
// resynchronise.
func TestCodecFramesSelfContained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 16
	cur := make([]fixp.Vec3, n)
	recv := make([]fixp.Vec3, n) // receiver's copies
	atoms := make([]int32, n)
	for i := range atoms {
		atoms[i] = int32(i)
	}
	var frame []byte
	for ex := 0; ex < 50; ex++ {
		for i := 0; i < n; i++ {
			// Mostly small steps, with occasional full-range jumps.
			if rng.Intn(10) == 0 {
				cur[i] = fixp.Vec3{X: fixp.F32(rng.Uint32()), Y: fixp.F32(rng.Uint32()), Z: fixp.F32(rng.Uint32())}
			} else {
				cur[i].X += fixp.F32(rng.Intn(2049) - 1024)
				cur[i].Y += fixp.F32(rng.Intn(2049) - 1024)
				cur[i].Z += fixp.F32(rng.Intn(2049) - 1024)
			}
		}
		frame = appendPosFrame(frame[:0], cur, atoms)
		if ex%3 == 1 {
			continue // a frame the receiver never sees
		}
		if ex%5 == 0 {
			for i := range recv {
				recv[i] = fixp.Vec3{X: fixp.F32(rng.Uint32()), Y: fixp.F32(rng.Uint32()), Z: fixp.F32(rng.Uint32())}
			}
		}
		if err := decodePosFrame(frame, atoms, recv); err != nil {
			t.Fatalf("exchange %d: %v", ex, err)
		}
		for i := 0; i < n; i++ {
			if recv[i] != cur[i] {
				t.Fatalf("exchange %d: receiver drifted at atom %d: %+v want %+v", ex, i, recv[i], cur[i])
			}
		}
	}
}

// Fuzz targets for the one wire format shards exchange. Each input is
// used twice: as a hostile frame (decoding arbitrary bytes must fail
// cleanly — errShortFrame or nothing, never a panic or an index out of
// range) and as a payload (every bit pattern must survive encode →
// decode, and the frame must reject truncation and trailing bytes). The
// seeds are the extremes TestCodecRoundTrip draws from and a small walk.

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
		// Hostile view: decode for n atoms. An accepted frame must encode
		// back to exactly its own bytes; a rejected one must write nothing.
		atoms := make([]int32, n)
		for i := range atoms {
			atoms[i] = int32(i)
		}
		pos := make([]fixp.Vec3, n)
		switch err := decodePosFrame(data, atoms, pos); err {
		case nil:
			if back := appendPosFrame(nil, pos, atoms); !bytes.Equal(back, data) {
				t.Fatalf("accepted frame re-encodes to %x, want %x", back, data)
			}
		case errShortFrame:
			for i, p := range pos {
				if p != (fixp.Vec3{}) {
					t.Fatalf("rejected frame wrote atom %d", i)
				}
			}
		default:
			t.Fatalf("hostile frame: %v", err)
		}

		// Payload view: 12-byte coordinate records.
		m := len(data) / posRecord
		cur := make([]fixp.Vec3, m)
		atoms = atoms[:0]
		for i := range cur {
			r := data[i*posRecord:]
			cur[i] = fixp.Vec3{
				X: fixp.F32(binary.LittleEndian.Uint32(r)),
				Y: fixp.F32(binary.LittleEndian.Uint32(r[4:])),
				Z: fixp.F32(binary.LittleEndian.Uint32(r[8:])),
			}
			atoms = append(atoms, int32(i))
		}
		frame := appendPosFrame(nil, cur, atoms)
		got := make([]fixp.Vec3, m)
		if err := decodePosFrame(frame, atoms, got); err != nil {
			t.Fatalf("own frame: %v", err)
		}
		for i := range cur {
			if got[i] != cur[i] {
				t.Fatalf("atom %d round-trips to %+v, want %+v", i, got[i], cur[i])
			}
		}
		if m > 0 {
			if err := decodePosFrame(frame[:len(frame)-1], atoms, got); err != errShortFrame {
				t.Fatalf("truncated frame: got %v, want errShortFrame", err)
			}
			if err := decodePosFrame(append(frame, 0), atoms, got); err != errShortFrame {
				t.Fatalf("trailing byte: got %v, want errShortFrame", err)
			}
		}
	})
}

func FuzzForceFrame(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		// Hostile view: decode for n atoms, as one section and as a
		// refresh frame's two.
		atoms := make([]int32, n)
		for i := range atoms {
			atoms[i] = int32(i)
		}
		short, long := make([]Force3, n), make([]Force3, n)
		for _, l := range [][]Force3{nil, long} {
			if err := decodeForceFrame(data, atoms, short, l); err != nil && err != errShortFrame {
				t.Fatalf("hostile frame: %v", err)
			}
		}

		// Payload view: 24-byte int64 triples, sent as the short section
		// and, reversed, as the long one.
		m := len(data) / 24
		forces, rev := make([]Force3, m), make([]Force3, m)
		atoms = atoms[:0]
		for i := range forces {
			r := data[i*24:]
			forces[i] = Force3{
				X: int64(binary.LittleEndian.Uint64(r)),
				Y: int64(binary.LittleEndian.Uint64(r[8:])),
				Z: int64(binary.LittleEndian.Uint64(r[16:])),
			}
			rev[m-1-i] = forces[i]
			atoms = append(atoms, int32(i))
		}
		one := appendForceFrame(nil, forces, atoms)
		two := appendForceFrame(append([]byte(nil), one...), rev, atoms)
		gotS, gotL := make([]Force3, m), make([]Force3, m)
		if err := decodeForceFrame(two, atoms, gotS, gotL); err != nil {
			t.Fatalf("own frame: %v", err)
		}
		for i := range forces {
			if gotS[i] != forces[i] || gotL[i] != rev[i] {
				t.Fatalf("atom %d round-trips to %+v/%+v, want %+v/%+v", i, gotS[i], gotL[i], forces[i], rev[i])
			}
		}
		if m > 0 {
			if err := decodeForceFrame(one[:len(one)-1], atoms, gotS, nil); err != errShortFrame {
				t.Fatalf("truncated frame: got %v, want errShortFrame", err)
			}
			if err := decodeForceFrame(append(one, 0), atoms, gotS, nil); err != errShortFrame {
				t.Fatalf("trailing byte: got %v, want errShortFrame", err)
			}
			if err := decodeForceFrame(one, atoms, gotS, gotL); err != errShortFrame {
				t.Fatalf("refresh frame cut at the section boundary: got %v, want errShortFrame", err)
			}
		}
	})
}

// BenchmarkPosFrame encodes and decodes one position frame of 2,945
// atoms (DHFR's 23,558 over 8 shards): one link's codec work per
// exchange.
func BenchmarkPosFrame(b *testing.B) {
	const n = 2945
	rng := rand.New(rand.NewSource(1))
	pos := make([]fixp.Vec3, n)
	atoms := make([]int32, n)
	for i := range pos {
		pos[i] = fixp.Vec3{X: fixp.F32(rng.Uint32()), Y: fixp.F32(rng.Uint32()), Z: fixp.F32(rng.Uint32())}
		atoms[i] = int32(i)
	}
	got := make([]fixp.Vec3, n)
	var frame []byte
	b.SetBytes(posRawBytes(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = appendPosFrame(frame[:0], pos, atoms)
		if err := decodePosFrame(frame, atoms, got); err != nil {
			b.Fatal(err)
		}
	}
}
