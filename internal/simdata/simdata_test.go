package simdata

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

func TestMouseChromosomes(t *testing.T) {
	refs := MouseChromosomes(1000)
	if len(refs) != 21 {
		t.Fatalf("chromosomes = %d, want 21", len(refs))
	}
	if refs[0].Name != "chr1" || refs[0].Length != 197195 {
		t.Errorf("chr1 = %+v", refs[0])
	}
	if refs[20].Name != "chrY" {
		t.Errorf("last = %+v", refs[20])
	}
	// Scale clamping.
	if got := MouseChromosomes(0)[0].Length; got != 197195432 {
		t.Errorf("unscaled chr1 = %d", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(100))
	b := Generate(DefaultConfig(100))
	if len(a.Records) != 100 || len(b.Records) != 100 {
		t.Fatalf("records = %d/%d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].String() != b.Records[i].String() {
			t.Fatalf("record %d differs between identical-seed runs", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	cfg := DefaultConfig(50)
	a := Generate(cfg)
	cfg.Seed = 2
	b := Generate(cfg)
	same := 0
	for i := range a.Records {
		if a.Records[i].String() == b.Records[i].String() {
			same++
		}
	}
	if same == len(a.Records) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateRecordsAreValid(t *testing.T) {
	d := Generate(DefaultConfig(500))
	for i := range d.Records {
		r := &d.Records[i]
		// Every record must survive a SAM text round trip.
		reparsed, err := sam.ParseRecord(r.String())
		if err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if reparsed.String() != r.String() {
			t.Fatalf("record %d not canonical", i)
		}
		if !r.Unmapped() {
			if got := r.Cigar.QueryLength(); got != len(r.Seq) {
				t.Fatalf("record %d CIGAR consumes %d bases, SEQ has %d", i, got, len(r.Seq))
			}
			if d.Header.RefID(r.RName) < 0 {
				t.Fatalf("record %d on unknown reference %q", i, r.RName)
			}
			ref := d.Header.RefByID(d.Header.RefID(r.RName))
			if int(r.Pos) > ref.Length {
				t.Fatalf("record %d at %d beyond %s length %d", i, r.Pos, ref.Name, ref.Length)
			}
		}
		if len(r.Seq) != 90 || len(r.Qual) != 90 {
			t.Fatalf("record %d SEQ/QUAL = %d/%d, want 90", i, len(r.Seq), len(r.Qual))
		}
	}
}

func TestGenerateSortedOrder(t *testing.T) {
	d := Generate(DefaultConfig(300))
	lastRef, lastPos := -2, int32(0)
	for i := range d.Records {
		r := &d.Records[i]
		ref := d.Header.RefID(r.RName)
		if ref < 0 {
			lastRef = 1 << 30 // unmapped sort last
			continue
		}
		if lastRef == 1<<30 {
			t.Fatalf("mapped record %d after unmapped block", i)
		}
		if ref < lastRef || (ref == lastRef && r.Pos < lastPos) {
			t.Fatalf("record %d out of order: %s:%d after ref %d pos %d", i, r.RName, r.Pos, lastRef, lastPos)
		}
		lastRef, lastPos = ref, r.Pos
	}
}

func TestGenerateUnsorted(t *testing.T) {
	cfg := DefaultConfig(200)
	cfg.Sorted = false
	d := Generate(cfg)
	if d.Header.SortOrder != sam.SortUnsorted {
		t.Errorf("SortOrder = %q", d.Header.SortOrder)
	}
}

func TestGenerateFractions(t *testing.T) {
	cfg := DefaultConfig(2000)
	d := Generate(cfg)
	unmapped, paired := 0, 0
	for i := range d.Records {
		if d.Records[i].Unmapped() {
			unmapped++
		}
		if d.Records[i].Flag.Paired() {
			paired++
		}
	}
	if unmapped == 0 || unmapped > 100 {
		t.Errorf("unmapped = %d of 2000, want ≈20", unmapped)
	}
	if paired < 1700 {
		t.Errorf("paired = %d of 2000, want ≈1900", paired)
	}
}

func TestWriteSAMReadable(t *testing.T) {
	d := Generate(DefaultConfig(100))
	path := filepath.Join(t.TempDir(), "d.sam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(f); err != nil {
		t.Fatalf("WriteSAM: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := sam.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	n := 0
	check := func(dst []byte, rec *sam.Record) ([]byte, error) {
		if rec.QName != d.Records[n].QName {
			return dst, fmt.Errorf("record %d = %s, want %s", n, rec.QName, d.Records[n].QName)
		}
		n++
		return dst, nil
	}
	err = src.Batches(src.All(), 1, func() sam.Visit { return check }, func(*sam.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("records = %d", n)
	}
	if len(src.Header.Refs) != len(d.Header.Refs) {
		t.Errorf("refs = %d, want %d", len(src.Header.Refs), len(d.Header.Refs))
	}
}

func TestWriteBAMReadable(t *testing.T) {
	d := Generate(DefaultConfig(100))
	var buf bytes.Buffer
	if err := d.WriteBAM(&buf); err != nil {
		t.Fatalf("WriteBAM: %v", err)
	}
	r, err := bam.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 100 {
		t.Fatalf("records = %d", len(recs))
	}
	for i := range recs {
		if recs[i].String() != d.Records[i].String() {
			t.Fatalf("BAM record %d differs from source", i)
		}
	}
}

func TestHistogramShape(t *testing.T) {
	h := Histogram(10000, 7)
	if len(h) != 10000 {
		t.Fatalf("bins = %d", len(h))
	}
	var sum, max float64
	for _, v := range h {
		if v < 0 {
			t.Fatal("negative histogram value")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(h))
	if mean < 3 || mean > 10 {
		t.Errorf("mean = %g, want ≈5-6", mean)
	}
	if max < 25 {
		t.Errorf("max = %g, want a peak ≥ 25", max)
	}
}

func TestHistogramDeterministic(t *testing.T) {
	a := Histogram(1000, 3)
	b := Histogram(1000, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d differs", i)
		}
	}
}

func TestSimulations(t *testing.T) {
	sims := Simulations(5, 400, 11)
	if len(sims) != 5 {
		t.Fatalf("sims = %d", len(sims))
	}
	for i, s := range sims {
		if len(s) != 400 {
			t.Fatalf("sim %d bins = %d", i, len(s))
		}
		for _, v := range s {
			if v < 0 {
				t.Fatalf("sim %d has negative value", i)
			}
		}
	}
	// Different simulations differ.
	same := 0
	for i := range sims[0] {
		if sims[0][i] == sims[1][i] {
			same++
		}
	}
	if same == len(sims[0]) {
		t.Error("simulations 0 and 1 identical")
	}
}

// TestGenerateGolden pins the generated bytes themselves, not only their
// repeatability: every dataset, histogram and simulation set the tools and
// the benchmark build from is fixed by these digests.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		reads   int
		readLen int
		sorted  bool
		want    string
	}{
		{"seed1-40k-90-sorted", 1, 40000, 90, true, "375273679b23d620382861baef1c10b6948f577392742530337d23c91debe51c"},
		{"seed2-40k-150-sorted", 2, 40000, 150, true, "78a37a4efcfce1bcdd524eaf0cae3eb29f98ee07d8db16da5898e926cb02e4da"},
		{"seed3-5k-90-unsorted", 3, 5000, 90, false, "df18ba47b823a3becdf26334a8ea506c40acc5ba69d36dba0ade1c44e46ce2e7"},
		{"seed7-one-read", 7, 1, 90, true, "545d614b3b5a73c8d78823c984f0ab4e584b44d611ea1c6a8030bd5e6dbd6ce6"},
		{"seed9-no-reads", 9, 0, 90, true, "4e5417892a99e27bd5947e5af2cdd462b98c31a5e094fcc0d2a59a68cf97a582"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.reads)
			cfg.Seed, cfg.ReadLen, cfg.Sorted = tc.seed, tc.readLen, tc.sorted
			h := sha256.New()
			if err := Generate(cfg).WriteSAM(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("sha256(WriteSAM) = %s, want %s", got, tc.want)
			}
		})
	}
	floats := func(vs ...[]float64) string {
		h := sha256.New()
		var b [8]byte
		for _, v := range vs {
			for _, x := range v {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if got, want := floats(Histogram(200000, 1)), "24faacb9844c1e20f976e662b1e6dbc242ee3e916e2f5ea19dec59db373c3d09"; got != want {
		t.Errorf("sha256(Histogram) = %s, want %s", got, want)
	}
	if got, want := floats(Simulations(40, 200000, 2)...), "c7526c0b400cf83dfe40fdfd84cc0ee570ef43d1512408b9e43ce21088f906a1"; got != want {
		t.Errorf("sha256(Simulations) = %s, want %s", got, want)
	}
}

// simulationsReference is Simulations drawn one stream at a time.
func simulationsReference(b, bins int, seed int64) [][]float64 {
	out := make([][]float64, b)
	for s := range out {
		rng := rand.New(rand.NewSource(seed + int64(s)*7919))
		out[s] = make([]float64, bins)
		for i := range out[s] {
			out[s][i] = math.Max(0, 5+rng.NormFloat64()*2.2)
		}
	}
	return out
}

func TestSimulationsIndependentOfCores(t *testing.T) {
	want := simulationsReference(9, 3000, 5)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, b := range []int{0, 1, 9} {
				got := Simulations(b, 3000, 5)
				if len(got) != b {
					t.Fatalf("Simulations(%d) returned %d datasets", b, len(got))
				}
				for s := range got {
					if !slices.Equal(got[s], want[s]) {
						t.Fatalf("Simulations(%d): dataset %d differs from the one-stream reference", b, s)
					}
				}
			}
		})
	}
}

// TestBoundedMatchesIntn checks the quality draw against the math/rand
// call it stands for: over every bound a quality draw uses (1 to 7, at
// any read length), and over large bounds, one of which rejects about
// half the values it reads.
func TestBoundedMatchesIntn(t *testing.T) {
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 1000, 1<<30 + 1, 1<<31 - 1} {
		d := newBounded(n)
		for k := 0; k < 2000; k++ {
			if got, want := d.draw(a), b.Intn(n); got != want {
				t.Fatalf("bound %d, draw %d: got %d, want %d", n, k, got, want)
			}
		}
	}
}
