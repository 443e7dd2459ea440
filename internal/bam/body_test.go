package bam

import (
	"encoding/binary"
	"errors"
	"testing"

	"parseq/internal/sam"
)

// TestDecodeRefusesOutOfRangeFields: a reference ID outside the header
// or a position outside [-1, 2³¹-1) is a malformed record, not a
// mapped record on "*" or a POS no SAM reader accepts. The view, the
// decode and the index agree.
func TestDecodeRefusesOutOfRangeFields(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000})
	rec := mustParse(t, "r1\t0\tchr1\t5\t30\t4M\t=\t9\t0\tACGT\tIIII")
	good, err := EncodeRecord(nil, &rec, h)
	if err != nil {
		t.Fatal(err)
	}
	good = good[4:]
	var out sam.Record
	if err := DecodeRecord(good, &out, h); err != nil {
		t.Fatalf("unmodified body: %v", err)
	}
	for _, c := range []struct {
		name string
		off  int
		v    int32
	}{
		{"refID past the header", 0, 7},
		{"refID below -1", 0, -2},
		{"negative pos", 4, -16},
		{"pos 2^31-1", 4, 1<<31 - 1},
		{"next_refID past the header", 20, 9},
		{"negative next_pos", 24, -3},
	} {
		body := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(body[c.off:], uint32(c.v))
		if err := DecodeRecord(body, &out, h); !errors.Is(err, ErrInvalidRecord) {
			t.Errorf("%s: DecodeRecord = %v (%s), want ErrInvalidRecord", c.name, err, out.String())
		}
		var b Body
		if err := b.Parse(body, len(h.Refs)); !errors.Is(err, ErrInvalidRecord) {
			t.Errorf("%s: Body.Parse = %v, want ErrInvalidRecord", c.name, err)
		}
	}
	if err := NewIndex(1).Add(3, 0, 10, 0, 0); !errors.Is(err, ErrInvalidRecord) {
		t.Errorf("Index.Add past the references = %v, want ErrInvalidRecord", err)
	}
}

// TestDecodedRecordsOwnTheirText: a record's strings are windows on
// one allocation of its own, so a record kept from an earlier decode
// keeps its text while later bodies decode.
func TestDecodedRecordsOwnTheirText(t *testing.T) {
	h := testHeader()
	kept := make([]sam.Record, len(testLines))
	for i, line := range testLines {
		rec := mustParse(t, line)
		body, err := EncodeRecord(nil, &rec, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRecord(body[4:], &kept[i], h); err != nil {
			t.Fatal(err)
		}
		clear(body) // the record must not alias the body either
	}
	for i, line := range testLines {
		if got := kept[i].String(); got != line {
			t.Errorf("record %d after later decodes: %q, want %q", i, got, line)
		}
	}
}
