package ppip

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Table serialization. The paper: "polynomial coefficients, associated
// exponents, and the parameters of the tiered indexing scheme are
// computed off-line as part of system preparation" — i.e. the tables are
// a build artifact shipped to the machine. This file implements that
// artifact format so tables can be prepared once and loaded by runs.

const (
	tableMagic   = 0x50504950 // "PPIP"
	tableVersion = 1
)

// Write serializes the table (scheme, widths, and quantized segments).
// The float coefficients are not stored: the mantissas and exponents ARE
// the table, exactly as on the hardware.
func (t *Table) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{tableMagic, tableVersion, uint32(t.MantissaBits), uint32(t.TBits), uint32(len(t.Scheme))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, tier := range t.Scheme {
		if err := binary.Write(bw, binary.LittleEndian, tier.Start); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, tier.End); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(tier.Entries)); err != nil {
			return err
		}
	}
	for _, seg := range t.Segments {
		if err := binary.Write(bw, binary.LittleEndian, seg.Lo); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, seg.Hi); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, seg.Mantissa); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, int64(seg.Exp)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTable deserializes a table written by Write. The loaded table
// evaluates identically (bitwise) to the original.
func ReadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("ppip: bad table header: %w", err)
		}
	}
	if hdr[0] != tableMagic {
		return nil, fmt.Errorf("ppip: bad table magic %#x", hdr[0])
	}
	if hdr[1] != tableVersion {
		return nil, fmt.Errorf("ppip: unsupported table version %d", hdr[1])
	}
	t := &Table{MantissaBits: uint(hdr[2]), TBits: uint(hdr[3])}
	nTiers := int(hdr[4])
	if nTiers <= 0 || nTiers > 64 {
		return nil, fmt.Errorf("ppip: implausible tier count %d", nTiers)
	}
	for i := 0; i < nTiers; i++ {
		var tier Tier
		var entries uint32
		if err := binary.Read(br, binary.LittleEndian, &tier.Start); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &tier.End); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &entries); err != nil {
			return nil, err
		}
		tier.Entries = int(entries)
		t.Scheme = append(t.Scheme, tier)
	}
	if err := t.Scheme.Validate(); err != nil {
		return nil, err
	}
	for i := 0; i < t.Scheme.TotalEntries(); i++ {
		var seg Segment
		var exp int64
		if err := binary.Read(br, binary.LittleEndian, &seg.Lo); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &seg.Hi); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &seg.Mantissa); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &exp); err != nil {
			return nil, err
		}
		seg.Exp = int(exp)
		t.Segments = append(t.Segments, seg)
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}
