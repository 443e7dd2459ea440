package bam

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestRunReader: a run yields its n records, block_size included, then
// io.EOF; a run cut inside a record or at a record boundary is an error
// at the first missing record, never a short success.
func TestRunReader(t *testing.T) {
	h := testHeader()
	recs := genRecords(t, 50)
	var run []byte
	boundary := 0
	for i := range recs {
		var err error
		if run, err = EncodeRecord(run, &recs[i], h); err != nil {
			t.Fatal(err)
		}
		if i == 29 {
			boundary = len(run)
		}
	}
	read := func(data []byte) (int, error) {
		rr := NewRunReader(bytes.NewReader(data), int64(len(recs)))
		for n := 0; ; n++ {
			rec, err := rr.Next()
			if err != nil {
				return n, err
			}
			var got []byte
			if got, err = EncodeRecord(nil, &recs[n], h); err != nil || !bytes.Equal(rec, got) {
				t.Fatalf("record %d differs from its encoding (err %v)", n, err)
			}
		}
	}
	if n, err := read(run); n != len(recs) || err != io.EOF {
		t.Fatalf("intact run: %d records, err %v; want %d, io.EOF", n, err, len(recs))
	}
	for _, tc := range []struct {
		name string
		cut  int
		n    int
		kind error
	}{
		{"at a boundary", boundary, 30, io.ErrUnexpectedEOF},
		{"inside the size", boundary + 2, 30, ErrInvalidRecord},
		{"inside the body", boundary + 40, 30, ErrInvalidRecord},
		{"empty", 0, 0, io.ErrUnexpectedEOF},
	} {
		if n, err := read(run[:tc.cut]); n != tc.n || !errors.Is(err, tc.kind) {
			t.Errorf("run cut %s: %d records, err %v; want %d, %v", tc.name, n, err, tc.n, tc.kind)
		}
	}
}
