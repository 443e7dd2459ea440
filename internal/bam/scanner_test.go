package bam

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// genRecords synthesizes n records with varied field sizes so encoded
// bodies differ in length — important for exercising every block
// boundary alignment in the scanners.
func genRecords(t testing.TB, n int) []sam.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	bases := "ACGTN"
	recs := make([]sam.Record, 0, n)
	pos := int32(1)
	for i := 0; i < n; i++ {
		pos += int32(rng.Intn(40))
		l := 20 + rng.Intn(80)
		seq := make([]byte, l)
		qual := make([]byte, l)
		for j := range seq {
			seq[j] = bases[rng.Intn(5)]
			qual[j] = byte(33 + rng.Intn(93))
		}
		rec := sam.Record{
			QName: fmt.Sprintf("read%06d", i),
			RName: "chr1", Pos: pos, MapQ: uint8(rng.Intn(60)),
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, l)},
			RNext: "*", Seq: string(seq), Qual: string(qual),
		}
		if rng.Intn(4) == 0 {
			rec.Tags = []sam.Tag{sam.IntTag("NM", int64(rng.Intn(10)))}
		}
		recs = append(recs, rec)
	}
	return recs
}

// encodeBAM writes a BAM stream with a custom BGZF payload size. Small
// payloads force records (and even their 4-byte size prefixes) to
// straddle block boundaries, the scanners' hard case.
func encodeBAM(t testing.TB, h *sam.Header, recs []sam.Record, payload int) []byte {
	t.Helper()
	raw, err := encodeBAMTail(h, recs, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// encodeBAMTail is encodeBAM plus arbitrary trailing bytes appended to
// the record stream before the BGZF EOF marker — the hook the
// truncation tests use to plant malformed final records.
func encodeBAMTail(h *sam.Header, recs []sam.Record, payload int, tail []byte) ([]byte, error) {
	var buf bytes.Buffer
	bg := bgzf.NewWriterSize(&buf, payload)
	text := h.String()
	hdr := make([]byte, 0, 16+len(text))
	hdr = append(hdr, Magic...)
	hdr = appendInt32(hdr, int32(len(text)))
	hdr = append(hdr, text...)
	hdr = appendInt32(hdr, int32(len(h.Refs)))
	for _, ref := range h.Refs {
		hdr = appendInt32(hdr, int32(len(ref.Name)+1))
		hdr = append(hdr, ref.Name...)
		hdr = append(hdr, 0)
		hdr = appendInt32(hdr, int32(ref.Length))
	}
	if _, err := bg.Write(hdr); err != nil {
		return nil, err
	}
	var rb []byte
	for i := range recs {
		var err error
		rb, err = EncodeRecord(rb[:0], &recs[i], h)
		if err != nil {
			return nil, err
		}
		if _, err := bg.Write(rb); err != nil {
			return nil, err
		}
	}
	if len(tail) > 0 {
		if _, err := bg.Write(tail); err != nil {
			return nil, err
		}
	}
	if err := bg.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func openReader(t testing.TB, raw []byte, workers int) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw), WithCodecWorkers(workers))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

// scannerPayloads are the BGZF payload sizes the parity tests sweep:
// 64 makes nearly every record span blocks (and size prefixes straddle
// them), 512 a good fraction, 0 the default where spanning is rare.
var scannerPayloads = []int{64, 512, 0}

// forcePipeline pins the apparent CPU count to 4 so NewParallelScanner
// builds the decode pipeline even on a single-CPU host (where the
// sequential bypass would otherwise swallow every test).
func forcePipeline(t testing.TB) {
	old := scannerProcs
	scannerProcs = func(int) int { return 4 }
	t.Cleanup(func() { scannerProcs = old })
}

// forceSingleProc pins the apparent CPU count to 1 so the bypass path
// is exercised deterministically on any host.
func forceSingleProc(t testing.TB) {
	old := scannerProcs
	scannerProcs = func(int) int { return 1 }
	t.Cleanup(func() { scannerProcs = old })
}

// The scanner must pick the sequential bypass exactly when parallelism
// cannot win: one effective worker, or one CPU.
func TestParallelScannerBypassSelection(t *testing.T) {
	h := testHeader()
	raw := encodeBAM(t, h, genRecords(t, 10), 0)
	open := func(workers int) *ParallelScanner {
		br := openReader(t, raw, 1)
		t.Cleanup(func() { br.Close() })
		sc := NewParallelScanner(br, workers)
		t.Cleanup(func() { sc.Close() })
		return sc
	}
	forceSingleProc(t)
	if sc := open(8); sc.seq == nil || sc.pipe != nil {
		t.Error("workers=8 on 1 CPU: want the sequential bypass")
	}
	forcePipeline(t)
	if sc := open(1); sc.seq == nil || sc.pipe != nil {
		t.Error("workers=1 on 4 CPUs: want the sequential bypass")
	}
	if sc := open(2); sc.seq != nil || sc.pipe == nil {
		t.Error("workers=2 on 4 CPUs: want the decode pipeline")
	}
}

func TestBodyScannerMatchesReadBody(t *testing.T) {
	h := testHeader()
	recs := genRecords(t, 300)
	for _, payload := range scannerPayloads {
		raw := encodeBAM(t, h, recs, payload)
		for _, codecWorkers := range []int{1, 2} {
			t.Run(fmt.Sprintf("payload=%d/codec=%d", payload, codecWorkers), func(t *testing.T) {
				ref := openReader(t, raw, 1)
				defer ref.Close()
				br := openReader(t, raw, codecWorkers)
				defer br.Close()
				sc := NewBodyScanner(br)
				for i := 0; ; i++ {
					want, werr := ref.ReadBody()
					got, gerr := sc.Next()
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("record %d: err %v vs %v", i, werr, gerr)
					}
					if werr != nil {
						if werr != io.EOF || gerr != io.EOF {
							t.Fatalf("record %d: terminal err %v vs %v", i, werr, gerr)
						}
						break
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("record %d: body mismatch (%d vs %d bytes)", i, len(got), len(want))
					}
				}
			})
		}
	}
}

func TestParallelScannerMatchesSequential(t *testing.T) {
	forcePipeline(t) // workers=1 still takes the bypass; workers=4 the pipeline
	h := testHeader()
	recs := genRecords(t, 2000)
	for _, payload := range scannerPayloads {
		raw := encodeBAM(t, h, recs, payload)
		for _, workers := range []int{1, 4} {
			for _, codecWorkers := range []int{1, 2} {
				t.Run(fmt.Sprintf("payload=%d/workers=%d/codec=%d", payload, workers, codecWorkers), func(t *testing.T) {
					ref := openReader(t, raw, 1)
					defer ref.Close()
					br := openReader(t, raw, codecWorkers)
					defer br.Close()
					sc := NewParallelScanner(br, workers)
					defer sc.Close()
					var want, got sam.Record
					for i := 0; ; i++ {
						werr := ref.ReadInto(&want)
						gerr := sc.ReadInto(&got)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("record %d: err %v vs %v", i, werr, gerr)
						}
						if werr != nil {
							if werr != io.EOF || gerr != io.EOF {
								t.Fatalf("record %d: terminal err %v vs %v", i, werr, gerr)
							}
							break
						}
						if got.String() != want.String() {
							t.Fatalf("record %d:\n got %q\nwant %q", i, got.String(), want.String())
						}
					}
					if err := sc.Err(); err != nil {
						t.Errorf("Err after clean EOF = %v", err)
					}
				})
			}
		}
	}
}

// Malformed streams: the parallel scanner must deliver every record
// preceding the defect, then fail with the same error text as the
// sequential reader.
func TestParallelScannerErrorParity(t *testing.T) {
	forcePipeline(t)
	h := testHeader()
	recs := genRecords(t, 120)
	var half []byte
	{
		rb, err := EncodeRecord(nil, &recs[0], h)
		if err != nil {
			t.Fatal(err)
		}
		half = rb[:len(rb)/2]
	}
	cases := []struct {
		name string
		tail []byte
	}{
		{"truncated-size", []byte{0x30}},
		{"truncated-body", half},
		{"bad-block-size", []byte{10, 0, 0, 0}},
	}
	for _, tc := range cases {
		for _, payload := range []int{64, 0} {
			raw, err := encodeBAMTail(h, recs, payload, tc.tail)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/payload=%d", tc.name, payload), func(t *testing.T) {
				ref := openReader(t, raw, 1)
				defer ref.Close()
				var want sam.Record
				wantN, werr := 0, error(nil)
				for {
					if werr = ref.ReadInto(&want); werr != nil {
						break
					}
					wantN++
				}
				if wantN != len(recs) {
					t.Fatalf("sequential reader delivered %d records before the defect, want %d", wantN, len(recs))
				}
				if !errors.Is(werr, ErrInvalidRecord) {
					t.Fatalf("sequential err = %v, want ErrInvalidRecord", werr)
				}

				// workers=1 exercises the bypass, workers=3 the pipeline —
				// both must reproduce the sequential error exactly.
				for _, workers := range []int{1, 3} {
					br := openReader(t, raw, 2)
					defer br.Close()
					sc := NewParallelScanner(br, workers)
					defer sc.Close()
					var got sam.Record
					gotN, gerr := 0, error(nil)
					for {
						if gerr = sc.ReadInto(&got); gerr != nil {
							break
						}
						gotN++
					}
					if gotN != wantN {
						t.Errorf("workers=%d: delivered %d records before the defect, want %d", workers, gotN, wantN)
					}
					if gerr == nil || gerr.Error() != werr.Error() {
						t.Errorf("workers=%d: err = %v, want %v", workers, gerr, werr)
					}
					if sc.Err() == nil {
						t.Errorf("workers=%d: Err() nil after failure", workers)
					}
				}
			})
		}
	}
}

// Closing mid-stream must stop the feeder and drain the pipeline without
// deadlocking, and subsequent Next calls must fail.
func TestParallelScannerEarlyClose(t *testing.T) {
	forcePipeline(t)
	h := testHeader()
	raw := encodeBAM(t, h, genRecords(t, 3000), 256)
	for _, workers := range []int{1, 4} { // bypass and pipeline
		for _, codecWorkers := range []int{1, 2} {
			br := openReader(t, raw, codecWorkers)
			sc := NewParallelScanner(br, workers)
			var rec sam.Record
			for i := 0; i < 10; i++ {
				if ok, err := sc.Next(&rec); !ok || err != nil {
					t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
				}
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
			if ok, err := sc.Next(&rec); ok || err == nil {
				t.Errorf("workers=%d: Next after Close succeeded", workers)
			}
			if err := br.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestParallelScannerEmptyStream(t *testing.T) {
	forcePipeline(t)
	h := testHeader()
	raw := encodeBAM(t, h, nil, 0)
	for _, workers := range []int{1, 2} { // bypass and pipeline
		br := openReader(t, raw, 1)
		defer br.Close()
		sc := NewParallelScanner(br, workers)
		defer sc.Close()
		var rec sam.Record
		if ok, err := sc.Next(&rec); ok || err != nil {
			t.Errorf("workers=%d: Next on empty stream = %v, %v", workers, ok, err)
		}
		if err := sc.Err(); err != nil {
			t.Errorf("workers=%d: Err on empty stream = %v", workers, err)
		}
	}
}
