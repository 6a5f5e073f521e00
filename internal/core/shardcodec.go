package core

import (
	"encoding/binary"
	"errors"

	"anton/internal/fixp"
)

// Wire codec for the shard transport. Every frame is self-contained: it
// decodes from its own bytes and the atom list both sides share, with no
// state carried from earlier exchanges. Position frames carry each listed
// atom's fixed-point coordinates as three 4-byte little-endian words.
// Force frames carry each listed atom's int64 force triple
// zigzag-varint packed (a refresh frame carries a second, long-range
// section over the same atoms), since force components are mostly far
// smaller than their 64-bit range; positions span their whole 32-bit
// range, so they are sent as they are.
//
// Both codecs are lossless for every bit pattern. A frame is immutable
// for the lifetime of its exchange (retransmissions resend identical
// bytes), so the reliable transport's CRC32 covers the frame as sent.

var errShortFrame = errors.New("core: truncated or padded shard frame")

// posRecord is the byte size of one atom's entry in a position frame.
const posRecord = 12

func zigzag64(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag64(u uint64) int64 {
	return int64((u >> 1) ^ -(u & 1))
}

// appendPosFrame appends the position frame of the listed atoms, read
// from pos, in list order.
func appendPosFrame(dst []byte, pos []fixp.Vec3, atoms []int32) []byte {
	for _, a := range atoms {
		p := pos[a]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.X))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Y))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Z))
	}
	return dst
}

// decodePosFrame writes a position frame's entries into pos at the listed
// atoms (the sender's owned list: both sides iterate it in the same
// order). A frame of the wrong length is rejected before pos is touched.
func decodePosFrame(frame []byte, atoms []int32, pos []fixp.Vec3) error {
	if len(frame) != len(atoms)*posRecord {
		return errShortFrame
	}
	for i, a := range atoms {
		r := frame[i*posRecord : (i+1)*posRecord]
		pos[a] = fixp.Vec3{
			X: fixp.F32(binary.LittleEndian.Uint32(r)),
			Y: fixp.F32(binary.LittleEndian.Uint32(r[4:])),
			Z: fixp.F32(binary.LittleEndian.Uint32(r[8:])),
		}
	}
	return nil
}

// appendForceFrame appends one force section: the zigzag-varint packing
// of the listed atoms' accumulated forces, read from f, in list order. A
// refresh evaluation's frame is two sections over the same atom list,
// short-range then long-range.
func appendForceFrame(dst []byte, f []Force3, atoms []int32) []byte {
	for _, a := range atoms {
		dst = binary.AppendUvarint(dst, zigzag64(f[a].X))
		dst = binary.AppendUvarint(dst, zigzag64(f[a].Y))
		dst = binary.AppendUvarint(dst, zigzag64(f[a].Z))
	}
	return dst
}

// decodeForceFrame adds a force frame's entries into the accumulators at
// the listed atoms (the atom list both sides share): the first section
// into short and, for a refresh frame (long non-nil), the second into
// long. Adds are wrapping fixed-point, so frames apply in any order. A
// frame that is not exactly its sections' length is rejected, but only
// after the entries before the defect were added: the transport's CRC
// gate keeps such frames from ever reaching the accumulators.
func decodeForceFrame(frame []byte, atoms []int32, short, long []Force3) error {
	off := 0
	next := func() (int64, bool) {
		u, m := binary.Uvarint(frame[off:])
		if m <= 0 {
			return 0, false
		}
		off += m
		return unzigzag64(u), true
	}
	for _, f := range [2][]Force3{short, long} {
		if f == nil {
			break // one-section frame
		}
		for _, a := range atoms {
			x, ok1 := next()
			y, ok2 := next()
			z, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return errShortFrame
			}
			f[a] = f[a].AddRaw(x, y, z)
		}
	}
	if off != len(frame) {
		return errShortFrame
	}
	return nil
}

// posRawBytes / forceRawBytes are the in-memory payload sizes the frames
// carry: 12 B per fixed-point position (a position frame is exactly
// that), 24 B per int64 force triple (before varint packing).
func posRawBytes(n int) int64   { return int64(n) * posRecord }
func forceRawBytes(n int) int64 { return int64(n) * 3 * 8 }
