package bam

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parseq/internal/bgzf"
)

// randomIndex builds a structurally valid index with rng-driven shape:
// references with and without data, multi-chunk bins, sparse linear
// windows.
func randomIndex(rng *rand.Rand) *Index {
	nRefs := 1 + rng.Intn(5)
	idx := NewIndex(nRefs)
	for refID := 0; refID < nRefs; refID++ {
		if rng.Float64() < 0.2 {
			continue // reference with no alignments
		}
		var off uint64 = uint64(rng.Intn(1000))
		pos := 0
		for n := rng.Intn(50); n > 0; n-- {
			pos += rng.Intn(40000)
			span := 1 + rng.Intn(300)
			beg := bgzf.VOffset(off)
			off += uint64(1 + rng.Intn(5000))
			idx.Add(refID, pos, pos+span, beg, bgzf.VOffset(off))
		}
	}
	return idx
}

// TestIndexPersistenceRoundTrip is the property test: for many random
// indexes, WriteTo → ReadIndex must preserve observable behaviour
// (every Query result) and re-serialise to identical bytes.
func TestIndexPersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		idx := randomIndex(rng)
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatalf("trial %d: WriteTo: %v", trial, err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)

		got, err := ReadIndex(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("trial %d: ReadIndex: %v", trial, err)
		}
		if got.NumRefs() != idx.NumRefs() {
			t.Fatalf("trial %d: NumRefs %d, want %d", trial, got.NumRefs(), idx.NumRefs())
		}
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatalf("trial %d: re-WriteTo: %v", trial, err)
		}
		if !bytes.Equal(encoded, buf2.Bytes()) {
			t.Fatalf("trial %d: round-tripped bytes differ (%d vs %d bytes)",
				trial, len(encoded), buf2.Len())
		}
		for refID := 0; refID < idx.NumRefs(); refID++ {
			for q := 0; q < 10; q++ {
				beg := rng.Intn(1 << 21)
				end := beg + 1 + rng.Intn(1<<20)
				want := idx.Query(refID, beg, end)
				have := got.Query(refID, beg, end)
				if len(want) != len(have) {
					t.Fatalf("trial %d ref %d [%d,%d): %d chunks, want %d",
						trial, refID, beg, end, len(have), len(want))
				}
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("trial %d ref %d [%d,%d): chunk %d = %+v, want %+v",
							trial, refID, beg, end, i, have[i], want[i])
					}
				}
			}
			wb, we, wok := idx.RefSpan(refID)
			gb, ge, gok := got.RefSpan(refID)
			if wb != gb || we != ge || wok != gok {
				t.Fatalf("trial %d ref %d: RefSpan (%d,%d,%v), want (%d,%d,%v)",
					trial, refID, gb, ge, gok, wb, we, wok)
			}
		}
		if want, have := idx.Cuts(0, 1<<40, 8), got.Cuts(0, 1<<40, 8); fmt.Sprint(want) != fmt.Sprint(have) {
			t.Fatalf("trial %d: Cuts %v, want %v", trial, have, want)
		}
	}
}

// FuzzReadIndex hardens the binary decoder: arbitrary input must error
// or parse, never panic or over-allocate, and whatever parses must
// re-serialise losslessly.
func FuzzReadIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		var buf bytes.Buffer
		if _, err := randomIndex(rng).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("BAI\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo after successful ReadIndex: %v", err)
		}
		if _, err := ReadIndex(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-read of re-serialised index: %v", err)
		}
	})
}
