package sm

import (
	"encoding/binary"
	"errors"
	"testing"

	"flexric/internal/encoding/asn1per"
)

// statsCellTimeMS is the CellTimeMS of every report statsDecoders
// encodes.
const statsCellTimeMS = 12345

// statsDecoders are the monitoring SMs' report round trips, each
// encoding a three-UE report and decoding a payload.
var statsDecoders = []struct {
	name   string
	encode func(Scheme) []byte
	decode func([]byte) error
}{
	{"mac", func(s Scheme) []byte {
		return EncodeMACReport(s, &MACReport{CellTimeMS: statsCellTimeMS, UEs: []MACUEEntry{{RNTI: 1, CQI: 15}, {RNTI: 2, TxBits: 1 << 20}, {RNTI: 3}}})
	}, func(b []byte) error { _, err := DecodeMACReport(b); return err }},
	{"rlc", func(s Scheme) []byte {
		return EncodeRLCReport(s, &RLCReport{CellTimeMS: statsCellTimeMS, UEs: []RLCUEEntry{{RNTI: 1}, {RNTI: 2, TxBytes: 10}, {RNTI: 3}}})
	}, func(b []byte) error { _, err := DecodeRLCReport(b); return err }},
	{"pdcp", func(s Scheme) []byte {
		return EncodePDCPReport(s, &PDCPReport{CellTimeMS: statsCellTimeMS, UEs: []PDCPUEEntry{{RNTI: 1}, {RNTI: 2}, {RNTI: 9, TxBytes: 640}}})
	}, func(b []byte) error { _, err := DecodePDCPReport(b); return err }},
}

// flatUECountPos locates the UE vector's u32 count in a flat-scheme
// report payload by walking the documented wire layout: scheme byte,
// root position, root vtable, slot 1's reference.
func flatUECountPos(t *testing.T, p []byte) int {
	t.Helper()
	body := p[1:]
	root := binary.LittleEndian.Uint32(body)
	vt := binary.LittleEndian.Uint32(body[root:])
	off := binary.LittleEndian.Uint16(body[vt+2+2*1:])
	ref := binary.LittleEndian.Uint32(body[root+uint32(off):])
	if got := binary.LittleEndian.Uint32(body[ref:]); got != 3 {
		t.Fatalf("UE count at %d reads %d, want 3", ref, got)
	}
	return 1 + int(ref)
}

// TestFlatReportCountBounded: a flat report whose UE count claims more
// entries than the payload's bytes can hold is rejected with
// ErrBadPayload instead of sizing a slice from the wire count — a count
// of 2^32-1 used to kill the controller with an out-of-memory error.
func TestFlatReportCountBounded(t *testing.T) {
	for _, d := range statsDecoders {
		valid := d.encode(SchemeFB)
		if err := d.decode(valid); err != nil {
			t.Fatalf("%s: valid payload: %v", d.name, err)
		}
		pos := flatUECountPos(t, valid)
		bound := uint32(len(valid)-pos-4) / 4
		for _, count := range []uint32{bound + 1, 1 << 24, 0xFFFFFFFF} {
			p := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(p[pos:], count)
			if err := d.decode(p); !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s: count %d: err %v, want ErrBadPayload", d.name, count, err)
			}
		}
	}
}

// TestPERReportCountBounded pins the PER branch's existing bound: the
// UE count is read with ReadCount, which rejects counts beyond the
// bytes left, and a count that fits but overstates the entries runs
// out of bytes mid-entry. Both surface as ErrBadPayload.
func TestPERReportCountBounded(t *testing.T) {
	for _, d := range statsDecoders {
		valid := d.encode(SchemeASN)
		if err := d.decode(valid); err != nil {
			t.Fatalf("%s: valid payload: %v", d.name, err)
		}
		// The count is the one-octet length determinant after the
		// scheme byte and the CellTimeMS integer.
		w := asn1per.NewWriter(16)
		w.WriteBits(uint64(SchemeASN), 8)
		w.WriteInt(statsCellTimeMS)
		pos := w.Len()
		if valid[pos] != 3 {
			t.Fatalf("%s: count octet at %d reads %d, want 3", d.name, pos, valid[pos])
		}
		left := len(valid) - pos - 1
		if left >= 128 {
			t.Fatalf("%s: %d bytes of entries need a longer determinant", d.name, left)
		}
		for _, det := range [][]byte{
			{byte(left)},             // as many entries as bytes: passes ReadCount, truncates mid-entry
			{byte(left + 1)},         // one more than the bytes left
			{0xBF, 0xFF},             // 16383
			{0xC0, 0xFF, 0xFF, 0xFF}, // 2^24-1
		} {
			p := append(append(append([]byte(nil), valid[:pos]...), det...), valid[pos+1:]...)
			if err := d.decode(p); !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s: count determinant % x: err %v, want ErrBadPayload", d.name, det, err)
			}
		}
	}
}
