package pamx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// writeTestBAM materialises a deterministic coordinate-sorted dataset
// (multiple references plus an unmapped tail) as a BAM file.
func writeTestBAM(t testing.TB, n int) (string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	path := filepath.Join(t.TempDir(), "data.bam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// readBAMBodies collects every record body of a BAM file.
func readBAMBodies(t testing.TB, path string) [][]byte {
	t.Helper()
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	br, err := bam.NewReader(bufio.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	var bodies [][]byte
	for {
		body, err := br.ReadBody()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
	}
	return bodies
}

// writeTestPAMX writes the records of the BAM file at bamPath as a PAMX
// file at path.
func writeTestPAMX(t testing.TB, bamPath, path string, opts Options) {
	t.Helper()
	in, err := os.Open(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	br, err := bam.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(out, br.Header(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		body, err := br.ReadBody()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.WriteBody(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProjectionViews checks the reassembled view contract per
// projection: FieldAll reproduces the original bodies exactly; partial
// projections stay valid BAM bodies whose projected fields match the
// original and whose prefix is patched for the elided ones.
func TestProjectionViews(t *testing.T) {
	bamPath, _ := writeTestBAM(t, 600)
	pamxPath := filepath.Join(t.TempDir(), "data.pamx")
	writeTestPAMX(t, bamPath, pamxPath, Options{CodecWorkers: 1, GroupRecords: 128})
	orig := readBAMBodies(t, bamPath)
	pf, err := OpenPath(pamxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()

	collect := func(fields Fields) [][]byte {
		var views [][]byte
		for g := 0; g < pf.NumGroups(); g++ {
			gr, err := pf.NewGroupReader(g, fields)
			if err != nil {
				t.Fatalf("%v: %v", fields, err)
			}
			for {
				body, err := gr.NextBody()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%v: %v", fields, err)
				}
				views = append(views, append([]byte(nil), body...))
			}
			gr.Close()
		}
		return views
	}

	full := collect(FieldAll)
	if len(full) != len(orig) {
		t.Fatalf("FieldAll yields %d records, want %d", len(full), len(orig))
	}
	for i := range full {
		if !bytes.Equal(full[i], orig[i]) {
			t.Fatalf("FieldAll view %d differs from original body", i)
		}
	}

	for _, fields := range []Fields{FieldFlag, FieldCoord | FieldCigar, FieldCoord | FieldSeq, FieldQName | FieldAux} {
		views := collect(fields)
		if len(views) != len(orig) {
			t.Fatalf("%v yields %d records, want %d", fields, len(views), len(orig))
		}
		var rec sam.Record
		for i, v := range views {
			// The fixed prefix outside the patched length fields must
			// survive any projection.
			for _, off := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 15, 20, 21, 24, 25, 28, 29} {
				if v[off] != orig[i][off] {
					t.Fatalf("%v view %d: prefix byte %d = %#x, want %#x", fields, i, off, v[off], orig[i][off])
				}
			}
			// Every view must stay a decodable BAM body.
			if err := bam.DecodeRecord(v, &rec, pf.Header()); err != nil {
				t.Fatalf("%v view %d does not decode: %v", fields, i, err)
			}
			refID, beg, _ := bam.BodySpan(v)
			wantRef, wantBeg, _ := bam.BodySpan(orig[i])
			if refID != wantRef || beg != wantBeg {
				t.Fatalf("%v view %d spans (%d, %d), want (%d, %d)", fields, i, refID, beg, wantRef, wantBeg)
			}
		}
	}

	// FieldCoord|FieldCigar must reproduce the exact reference span —
	// the histogram driver depends on it.
	views := collect(FieldCoord | FieldCigar)
	for i, v := range views {
		r1, b1, e1 := bam.BodySpan(v)
		r0, b0, e0 := bam.BodySpan(orig[i])
		if r1 != r0 || b1 != b0 || e1 != e0 {
			t.Fatalf("coord|cigar view %d spans (%d, %d, %d), want (%d, %d, %d)", i, r1, b1, e1, r0, b0, e0)
		}
	}
}

// TestGroupsNeverMixReferences asserts the reference-change cut rule the
// shard provider's region filtering relies on.
func TestGroupsNeverMixReferences(t *testing.T) {
	bamPath, _ := writeTestBAM(t, 1000)
	pamxPath := filepath.Join(t.TempDir(), "data.pamx")
	writeTestPAMX(t, bamPath, pamxPath, Options{CodecWorkers: 1})
	pf, err := OpenPath(pamxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	var rec sam.Record
	for g := 0; g < pf.NumGroups(); g++ {
		info := pf.Group(g)
		gr, err := pf.NewGroupReader(g, FieldCoord)
		if err != nil {
			t.Fatal(err)
		}
		for {
			err := gr.ReadInto(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			refID := pf.Header().RefID(rec.RName)
			if int32(refID) != info.RefID {
				t.Fatalf("group %d (ref %d) holds a record on ref %d", g, info.RefID, refID)
			}
		}
		gr.Close()
	}
}

// TestOpenRejectsCorruption exercises the untrusted-input layers of
// Open: truncation, bad magic, bad trailer, and footer damage must all
// error without panicking.
func TestOpenRejectsCorruption(t *testing.T) {
	bamPath, _ := writeTestBAM(t, 200)
	pamxPath := filepath.Join(t.TempDir(), "data.pamx")
	writeTestPAMX(t, bamPath, pamxPath, Options{CodecWorkers: 1})
	good, err := os.ReadFile(pamxPath)
	if err != nil {
		t.Fatal(err)
	}

	tryOpen := func(raw []byte) error {
		_, err := Open(bytes.NewReader(raw), int64(len(raw)))
		return err
	}
	if err := tryOpen(good); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	for cut := 0; cut < len(good); cut += 97 {
		if tryOpen(good[:cut]) == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for _, off := range []int{0, 4, len(good) - 1, len(good) - 9, len(good) - 16} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xff
		if tryOpen(mut) == nil {
			t.Fatalf("bit damage at offset %d accepted", off)
		}
	}
	// A column whose ULen is more than its CLen bytes of BGZF can carry
	// must fail Open, not the allocation a group read makes for it.
	footStart := len(good) - 16 - int(binary.LittleEndian.Uint64(good[len(good)-16:]))
	for _, ulen := range []uint64{1 << 40, 1 << 50} {
		mut := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(mut[footStart+4+28+colQName*24+16:], ulen)
		if err := tryOpen(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("qname column ULen %d: Open = %v, want ErrCorrupt", ulen, err)
		}
	}
}
