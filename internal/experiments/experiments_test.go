package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"parseq/internal/bam"
	"parseq/internal/conv"
	"parseq/internal/sam"
)

func quick(t *testing.T) Scale {
	t.Helper()
	sc := QuickScale()
	sc.TmpDir = t.TempDir()
	sc.KeepTmp = true // the test's TempDir handles cleanup
	return sc
}

// parseSpeedup reads "12.34x" cells.
func parseSpeedup(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q: %v", cell, err)
	}
	return v
}

func TestIDsAndRun(t *testing.T) {
	ids := IDs()
	if len(ids) != 9 {
		t.Fatalf("IDs = %v", ids)
	}
	if _, err := Run("nope", quick(t)); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestReportPrint(t *testing.T) {
	r := &Report{
		ID: "t", Title: "test", Columns: []string{"A", "Blong"},
		Notes: []string{"a note"},
	}
	r.AddRow("1", "2")
	var buf bytes.Buffer
	if err := r.Print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: test ==", "A  Blong", "1  2", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Run("table1", quick(t))
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	// Each row: conversion, system, measured, paper, ratio.
	for _, row := range r.Rows {
		if len(row) != 5 {
			t.Fatalf("row = %v", row)
		}
	}
	if r.Rows[0][0] != "SAM→FASTQ" || r.Rows[3][0] != "BAM→SAM" {
		t.Errorf("unexpected conversions: %v / %v", r.Rows[0][0], r.Rows[3][0])
	}
}

func TestFig6SpeedupShape(t *testing.T) {
	r, err := Run("fig6", quick(t))
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(r.Rows) != 8 { // 1..128 cores
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Speedups increase monotonically per column and start at 1x.
	for col := 1; col <= 3; col++ {
		prev := 0.0
		for i, row := range r.Rows {
			s := parseSpeedup(t, row[col])
			if i == 0 && (s < 0.99 || s > 1.01) {
				t.Errorf("col %d speedup(1) = %g", col, s)
			}
			if s < prev {
				t.Errorf("col %d speedup not monotone at row %d: %g < %g", col, i, s, prev)
			}
			prev = s
		}
	}
	// BEDGRAPH (col 2) scales at least as well as BED (col 1) at 128 cores.
	last := r.Rows[len(r.Rows)-1]
	if parseSpeedup(t, last[2]) < parseSpeedup(t, last[1])*0.95 {
		t.Errorf("BEDGRAPH %s not ≥ BED %s at 128 cores", last[2], last[1])
	}
}

func TestFig7Runs(t *testing.T) {
	r, err := Run("fig7", quick(t))
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(r.Rows) != 8 || len(r.Columns) != 4 {
		t.Fatalf("shape = %dx%d", len(r.Rows), len(r.Columns))
	}
	last := r.Rows[len(r.Rows)-1]
	if s := parseSpeedup(t, last[1]); s < 4 {
		t.Errorf("BAMX conversion speedup at 128 = %g, want substantial", s)
	}
}

func TestFig8Proportionality(t *testing.T) {
	r, err := Run("fig8", quick(t))
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	// Normalised times: 20% subset should cost well under half the 100%
	// run at every core count, and the 100% column is 1.00 by definition.
	for _, row := range r.Rows {
		t20, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		t100, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if t100 != 1.00 {
			t.Errorf("100%% column = %g", t100)
		}
		if t20 > 0.55 {
			t.Errorf("cores=%s: 20%% subset cost %g of full, want ≲ 0.5", row[0], t20)
		}
	}
}

func TestFig9ReportsImprovement(t *testing.T) {
	r, err := Run("fig9", quick(t))
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(r.Columns) != 7 {
		t.Fatalf("columns = %v", r.Columns)
	}
	// The preprocessed converter scales at least as well as the original
	// at 128 cores (regular layout, binary input).
	last := r.Rows[len(r.Rows)-1]
	for col := 1; col <= 3; col++ {
		orig := parseSpeedup(t, last[col])
		pre := parseSpeedup(t, last[col+3])
		if pre < orig*0.9 {
			t.Errorf("column %s: preprocessed speedup %g below original %g",
				r.Columns[col], pre, orig)
		}
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "improvement") {
			found = true
		}
	}
	if !found {
		t.Error("improvement notes missing")
	}
}

func TestFig10Runs(t *testing.T) {
	r, err := Run("fig10", quick(t))
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	last := parseSpeedup(t, r.Rows[len(r.Rows)-1][1])
	if last < 4 {
		t.Errorf("preprocessing speedup at 128 = %g", last)
	}
}

func TestFig11NearLinearAndImprovingWithR(t *testing.T) {
	sc := quick(t)
	sc.Bins = 2000 // keep the r=320 kernel quick
	r, err := Run("fig11", sc)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	last := r.Rows[len(r.Rows)-1]
	s20 := parseSpeedup(t, last[1])
	s320 := parseSpeedup(t, last[3])
	if s320 < s20 {
		t.Errorf("r=320 speedup %g below r=20 speedup %g", s320, s20)
	}
	if s320 < 64 {
		t.Errorf("r=320 speedup at 128 cores = %g, want near-linear", s320)
	}
}

func TestFig12FusedBeatsTwoPass(t *testing.T) {
	sc := quick(t)
	r, err := Run("fig12", sc)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		fused := parseSpeedup(t, row[1])
		twoPass := parseSpeedup(t, row[2])
		if fused < twoPass {
			t.Errorf("cores=%s: fused %g below two-pass %g", row[0], fused, twoPass)
		}
	}
	// Near-linear at 256 cores, echoing the paper's 263.94x (modelled
	// without the cache superlinearity).
	last := parseSpeedup(t, r.Rows[len(r.Rows)-1][1])
	if last < 128 {
		t.Errorf("fused speedup at 256 = %g, want near-linear", last)
	}
}

func TestAblationsReport(t *testing.T) {
	sc := quick(t)
	sc.Bins = 2000
	r, err := Run("ablations", sc)
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != 5 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestPrintAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	sc := quick(t)
	sc.Bins = 2000
	var buf bytes.Buffer
	if err := PrintAll(&buf, sc); err != nil {
		t.Fatalf("PrintAll: %v", err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), "== "+strings.ToUpper(id)+":") {
			t.Errorf("output missing %s", id)
		}
	}
}

// TestAllSharesOneFixture: a full run generates each dataset once (full
// and chr1) and preprocesses BAM once, however many figures read them.
func TestAllSharesOneFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	sc := quick(t)
	sc.Bins = 2000
	reports, fx, err := run(sc, figures)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(reports) != len(figures) {
		t.Fatalf("%d reports, want %d", len(reports), len(figures))
	}
	if fx.generated != 2 || fx.preBAM != 1 {
		t.Errorf("datasets generated %d (want 2), PreprocessBAMFile calls %d (want 1)", fx.generated, fx.preBAM)
	}
}

// TestPreprocessorsAgree pins what lets Table I read one chr1 BAMX/BAIX
// pair for both "with preprocessing" rows: the BAM preprocessor and the
// one-rank SAM preprocessor write identical bytes.
func TestPreprocessorsAgree(t *testing.T) {
	fx, err := newFixture(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	d := &fx.chr1
	if err := d.pair(); err != nil {
		t.Fatal(err)
	}
	if err := d.preprocessSAM(); err != nil {
		t.Fatal(err)
	}
	if len(d.shards.BAMXFiles) != 1 {
		t.Fatalf("SAM preprocessor wrote %d shards, want 1", len(d.shards.BAMXFiles))
	}
	for _, pair := range [][2]string{{d.bamx, d.shards.BAMXFiles[0]}, {d.baix, d.shards.BAIXFiles[0]}} {
		if !bytes.Equal(mustRead(t, pair[0]), mustRead(t, pair[1])) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAdaptationShimCopies: the adapted record shares no storage with
// the library-side scratch object — overwrite the scratch and the record
// is unchanged — and Table I's shimmed conversion still writes the bytes
// of the product's sequential BAM converter.
func TestAdaptationShimCopies(t *testing.T) {
	fx, err := newFixture(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.chr1.files(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fx.chr1.bam)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	var scratch, rec sam.Record
	if err := br.ReadInto(&scratch); err != nil {
		t.Fatal(err)
	}
	adaptAlignment(&rec, &scratch)
	want := rec.String()
	if len(scratch.Cigar) == 0 || len(scratch.Tags) == 0 {
		t.Fatalf("fixture record has no CIGAR or tags: %s", want)
	}
	for _, s := range [][2]string{{rec.QName, scratch.QName}, {rec.Seq, scratch.Seq}, {rec.Qual, scratch.Qual}} {
		if unsafe.StringData(s[0]) == unsafe.StringData(s[1]) {
			t.Errorf("adapted string %q shares the scratch's bytes", s[0])
		}
	}
	scratch.Cigar[0] = sam.NewCigarOp(scratch.Cigar[0].Type(), scratch.Cigar[0].Len()+1)
	scratch.Tags[0].Value = "overwritten"
	scratch.QName, scratch.Seq, scratch.Qual, scratch.Pos = "x", "N", "!", -1
	if got := rec.String(); got != want {
		t.Errorf("record changed with the scratch:\n got %s\nwant %s", got, want)
	}

	opts := conv.Options{Format: "sam", OutDir: t.TempDir(), OutPrefix: "shim", CodecWorkers: 1}
	adapted, err := convertBAMAdapted(fx.chr1.bam, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.OutPrefix = "plain"
	plain, err := conv.ConvertBAMSequential(fx.chr1.bam, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, adapted.Files[0]), mustRead(t, plain.Files[0])) ||
		adapted.Stats.Records != plain.Stats.Records || adapted.Stats.Emitted != plain.Stats.Emitted {
		t.Error("shimmed conversion differs from ConvertBAMSequential")
	}
}
