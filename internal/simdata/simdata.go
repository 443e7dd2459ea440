// Package simdata deterministically generates synthetic next-generation
// sequencing data standing in for the paper's experimental datasets
// (whole-genome mouse DNA-seq: Illumina HiSeq 2000 paired-end 90 bp reads
// aligned to mm9 with BWA). Generated alignments have realistic field
// distributions — varying CIGARs, qualities, optional tags and template
// geometry — because the converter's per-record cost, which the paper's
// experiments measure, is a function of exactly those field sizes.
package simdata

import (
	"cmp"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"parseq/internal/bam"
	"parseq/internal/kern"
	"parseq/internal/sam"
)

// MouseChromosomes mirrors the mm9 chromosome names with lengths scaled
// down by scale (mm9 chr1 is 197,195,432 bp; scale 1000 gives 197,195).
func MouseChromosomes(scale int) []sam.Reference {
	if scale < 1 {
		scale = 1
	}
	full := []struct {
		name string
		len  int
	}{
		{"chr1", 197195432}, {"chr2", 181748087}, {"chr3", 159599783},
		{"chr4", 155630120}, {"chr5", 152537259}, {"chr6", 149517037},
		{"chr7", 152524553}, {"chr8", 131738871}, {"chr9", 124076172},
		{"chr10", 129993255}, {"chr11", 121843856}, {"chr12", 121257530},
		{"chr13", 120284312}, {"chr14", 125194864}, {"chr15", 103494974},
		{"chr16", 98319150}, {"chr17", 95272651}, {"chr18", 90772031},
		{"chr19", 61342430}, {"chrX", 166650296}, {"chrY", 15902555},
	}
	refs := make([]sam.Reference, len(full))
	for i, c := range full {
		refs[i] = sam.Reference{Name: c.name, Length: c.len / scale, ID: i}
	}
	return refs
}

// Config controls dataset generation.
type Config struct {
	Seed         int64
	NumReads     int // number of alignment records to generate
	ReadLen      int // bases per read (paper: 90)
	Chromosomes  []sam.Reference
	Sorted       bool    // emit records in coordinate order
	PairedFrac   float64 // fraction of reads that are one end of a proper pair
	UnmappedFrac float64 // fraction of reads that are unmapped
	Sample       string  // read-group sample name
}

// DefaultConfig mirrors the paper's dataset shape at laptop scale.
func DefaultConfig(numReads int) Config {
	return Config{
		Seed:         1,
		NumReads:     numReads,
		ReadLen:      90,
		Chromosomes:  MouseChromosomes(1000),
		Sorted:       true,
		PairedFrac:   0.95,
		UnmappedFrac: 0.01,
		Sample:       "mouse1",
	}
}

// Dataset is a generated header plus records.
type Dataset struct {
	Header  *sam.Header
	Records []sam.Record
}

// Generate builds the synthetic dataset described by cfg.
func Generate(cfg Config) *Dataset {
	if cfg.ReadLen <= 0 {
		cfg.ReadLen = 90
	}
	if len(cfg.Chromosomes) == 0 {
		cfg.Chromosomes = MouseChromosomes(1000)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := sam.NewHeader(cfg.Chromosomes...)
	if cfg.Sorted {
		h.SortOrder = sam.SortCoordinate
	} else {
		h.SortOrder = sam.SortUnsorted
	}
	h.ReadGroups = append(h.ReadGroups, sam.ReadGroup{
		ID: "grp1", Sample: cfg.Sample, Library: "lib1", Platform: "ILLUMINA",
	})
	h.Programs = append(h.Programs, sam.Program{
		ID: "bwa", Name: "bwa", Version: "0.6.2",
		CommandLine: "bwa sampe ref.fa r1.sai r2.sai r1.fq r2.fq",
	})

	// A base's quality draw is bounded by its offset in the read alone.
	qualDraws := make([]bounded, cfg.ReadLen)
	for j := range qualDraws {
		qualDraws[j] = newBounded(1 + (j*len(baseQualities))/(2*cfg.ReadLen))
	}
	recs := make([]sam.Record, 0, cfg.NumReads)
	for i := 0; i < cfg.NumReads; i++ {
		recs = append(recs, generateRecord(rng, cfg, qualDraws, i))
	}
	if cfg.Sorted {
		sortByCoordinate(h, recs)
	}
	return &Dataset{Header: h, Records: recs}
}

// sortByCoordinate puts recs in coordinate order, unmapped records last as
// samtools does, keeping generation order among equal coordinates. It
// sorts one 12-byte key per record, read once, rather than the records,
// and then moves each record once along the cycles of the permutation.
func sortByCoordinate(h *sam.Header, recs []sam.Record) {
	type key struct {
		ref uint32 // RefID as unsigned, so unmapped (-1) sorts last
		pos int32
		i   uint32 // generation index: the tie-break a stable sort keeps
	}
	keys := make([]key, len(recs))
	for i := range recs {
		keys[i] = key{uint32(h.RefID(recs[i].RName)), recs[i].Pos, uint32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.ref != b.ref {
			return cmp.Compare(a.ref, b.ref)
		}
		if a.pos != b.pos {
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(a.i, b.i)
	})
	// Position k takes record keys[k].i. Each cycle is walked from its
	// first position, and a placed position's key is set to itself.
	for start := range keys {
		if keys[start].i == uint32(start) {
			continue
		}
		first := recs[start]
		k := start
		for {
			from := int(keys[k].i)
			keys[k].i = uint32(k)
			if from == start {
				recs[k] = first
				break
			}
			recs[k] = recs[from]
			k = from
		}
	}
}

const bases = "ACGT"
const baseQualities = "##'+2:BFHIIJJJ" // Illumina-like quality alphabet, low to high

// bounded draws rng.Intn(n) for one bound 0 < n < 1<<31. It takes the
// same values from the source as math/rand's Int31n, whose stream Go 1
// compatibility fixes, but works out its rejection threshold once.
type bounded struct{ n, max int32 }

func newBounded(n int) bounded {
	b := bounded{n: int32(n), max: math.MaxInt32}
	if n&(n-1) != 0 { // a power of two is masked, with no rejection
		b.max = int32((1 << 31) - 1 - (1<<31)%uint32(n))
	}
	return b
}

func (b bounded) draw(rng *rand.Rand) int {
	v := int32(rng.Int63() >> 32)
	for v > b.max {
		v = int32(rng.Int63() >> 32)
	}
	return int(v % b.n)
}

// appendPadded appends v ≥ 0 in decimal, zero-padded to width digits as
// fmt's %0*d does.
func appendPadded(dst []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for k := len(d); k < width; k++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

func generateRecord(rng *rand.Rand, cfg Config, qualDraws []bounded, i int) sam.Record {
	n := cfg.ReadLen
	// SEQ, QUAL and QNAME share one allocation, in that order.
	buf := make([]byte, 2*n, 2*n+len("HWI-ST0000:8:1101:00000:")+20)
	for j := 0; j < n; j++ {
		buf[j] = bases[rng.Int63()>>32&3] // rng.Intn(4)
		// Qualities degrade toward the read's 3' end, like real Illumina data.
		buf[n+j] = baseQualities[len(baseQualities)-1-qualDraws[j].draw(rng)]
	}
	buf = append(buf, "HWI-ST"...)
	buf = appendPadded(buf, rng.Intn(10000), 4)
	buf = append(buf, ":8:1101:"...)
	buf = appendPadded(buf, rng.Intn(99999), 5)
	buf = append(buf, ':')
	buf = appendPadded(buf, i, 6)
	text := kern.BytesString(buf)
	seq, qual, qname := text[:n], text[n:2*n], text[2*n:]

	if rng.Float64() < cfg.UnmappedFrac {
		return sam.Record{
			QName: qname, Flag: sam.FlagUnmapped, RName: "*", Pos: 0, MapQ: 0,
			RNext: "*", Seq: seq, Qual: qual,
			Tags: []sam.Tag{sam.StringTag("RG", "grp1")},
		}
	}

	ref := cfg.Chromosomes[rng.Intn(len(cfg.Chromosomes))]
	maxPos := ref.Length - n
	if maxPos < 1 {
		maxPos = 1
	}
	pos := int32(rng.Intn(maxPos) + 1)
	cigar := randomCigar(rng, n)
	mapq := uint8(20 + rng.Intn(41))

	rec := sam.Record{
		QName: qname,
		RName: ref.Name,
		Pos:   pos,
		MapQ:  mapq,
		Cigar: cigar,
		RNext: "*",
		Seq:   seq,
		Qual:  qual,
		Tags: []sam.Tag{
			sam.IntTag("NM", int64(rng.Intn(4))),
			sam.StringTag("RG", "grp1"),
			sam.IntTag("AS", int64(n-rng.Intn(10))),
		},
	}
	if rng.Float64() < cfg.PairedFrac {
		isize := 200 + rng.Intn(200)
		rec.Flag = sam.FlagPaired | sam.FlagProperPair
		if rng.Intn(2) == 0 {
			rec.Flag |= sam.FlagRead1 | sam.FlagMateReverse
			rec.PNext = pos + int32(isize-n)
			rec.TLen = int32(isize)
		} else {
			rec.Flag |= sam.FlagRead2 | sam.FlagReverse
			rec.PNext = pos - int32(isize-n)
			if rec.PNext < 1 {
				rec.PNext = 1
			}
			rec.TLen = int32(-isize)
		}
		rec.RNext = "="
	} else if rng.Intn(2) == 0 {
		rec.Flag = sam.FlagReverse
	}
	return rec
}

// randomCigar produces BWA-like CIGAR distributions: mostly full-length
// matches, with occasional soft clips, insertions and deletions.
func randomCigar(rng *rand.Rand, n int) sam.Cigar {
	switch r := rng.Float64(); {
	case r < 0.80:
		return sam.Cigar{sam.NewCigarOp(sam.CigarMatch, n)}
	case r < 0.90:
		clip := 1 + rng.Intn(n/4)
		if rng.Intn(2) == 0 {
			return sam.Cigar{
				sam.NewCigarOp(sam.CigarSoftClip, clip),
				sam.NewCigarOp(sam.CigarMatch, n-clip),
			}
		}
		return sam.Cigar{
			sam.NewCigarOp(sam.CigarMatch, n-clip),
			sam.NewCigarOp(sam.CigarSoftClip, clip),
		}
	case r < 0.95:
		ins := 1 + rng.Intn(5)
		left := 1 + rng.Intn(n-ins-1)
		return sam.Cigar{
			sam.NewCigarOp(sam.CigarMatch, left),
			sam.NewCigarOp(sam.CigarInsertion, ins),
			sam.NewCigarOp(sam.CigarMatch, n-left-ins),
		}
	default:
		del := 1 + rng.Intn(10)
		left := 1 + rng.Intn(n-2)
		return sam.Cigar{
			sam.NewCigarOp(sam.CigarMatch, left),
			sam.NewCigarOp(sam.CigarDeletion, del),
			sam.NewCigarOp(sam.CigarMatch, n-left),
		}
	}
}

// WriteSAM writes the dataset as SAM text.
func (d *Dataset) WriteSAM(w io.Writer) error {
	sw, err := sam.NewWriter(w, d.Header)
	if err != nil {
		return err
	}
	for i := range d.Records {
		if err := sw.Write(&d.Records[i]); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// WriteBAM writes the dataset as BAM.
func (d *Dataset) WriteBAM(w io.Writer) error {
	bw, err := bam.NewWriter(w, d.Header)
	if err != nil {
		return err
	}
	for i := range d.Records {
		if err := bw.Write(&d.Records[i]); err != nil {
			return err
		}
	}
	return bw.Close()
}

// Histogram generates a synthetic binned coverage histogram of the kind
// the statistical module analyses: a noisy background with enriched
// regions (peaks), mimicking ChIP-seq coverage. Values are non-negative.
func Histogram(bins int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	h := make([]float64, bins)
	// Poisson-ish background around λ=5.
	for i := range h {
		h[i] = math.Max(0, 5+rng.NormFloat64()*2.2)
	}
	// Enriched regions: one peak per ~2000 bins, Gaussian profile.
	nPeaks := bins / 2000
	if nPeaks < 1 {
		nPeaks = 1
	}
	for p := 0; p < nPeaks; p++ {
		center := rng.Intn(bins)
		height := 30 + rng.Float64()*70
		width := 10 + rng.Float64()*40
		lo := center - int(4*width)
		hi := center + int(4*width)
		if lo < 0 {
			lo = 0
		}
		if hi > bins {
			hi = bins
		}
		for i := lo; i < hi; i++ {
			d := float64(i-center) / width
			h[i] += height * math.Exp(-d*d/2)
		}
	}
	return h
}

// Simulations generates B random-background simulation datasets of the
// given bin count, as used by the FDR computation: background noise with
// the same marginal distribution as the histogram's background but no
// true peaks. Each dataset is drawn from its own seeded stream, so the
// streams run on GOMAXPROCS goroutines and the output does not depend on
// the core count.
func Simulations(b, bins int, seed int64) [][]float64 {
	out := make([][]float64, b)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(b, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1) - 1); s < b; s = int(next.Add(1) - 1) {
				out[s] = simulation(bins, seed+int64(s)*7919)
			}
		}()
	}
	wg.Wait()
	return out
}

func simulation(bins int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sim := make([]float64, bins)
	for i := range sim {
		sim[i] = math.Max(0, 5+rng.NormFloat64()*2.2)
	}
	return sim
}
