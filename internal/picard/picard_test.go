package picard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/conv"
	"parseq/internal/simdata"
)

func writeDataset(t testing.TB, n int) (string, string) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	dir := t.TempDir()
	samPath := filepath.Join(dir, "in.sam")
	bamPath := filepath.Join(dir, "in.bam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	return samPath, bamPath
}

// The baseline and our converter must produce byte-identical FASTQ — they
// implement the same conversion semantics.
func TestSamToFastqMatchesConverter(t *testing.T) {
	samPath, _ := writeDataset(t, 300)
	outDir := t.TempDir()
	base := filepath.Join(outDir, "picard.fastq")
	stats, err := SamToFastq(samPath, base)
	if err != nil {
		t.Fatalf("SamToFastq: %v", err)
	}
	if stats.Records != 300 {
		t.Errorf("Records = %d, want 300", stats.Records)
	}
	if stats.Duration <= 0 {
		t.Error("Duration not recorded")
	}

	res, err := conv.ConvertSAM(samPath, conv.Options{
		Format: "fastq", Cores: 1, OutDir: outDir, OutPrefix: "ours",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("baseline FASTQ differs from converter FASTQ (%d vs %d bytes)",
			len(got), len(want))
	}
	if stats.BytesOut != int64(len(got)) {
		t.Errorf("BytesOut = %d, file is %d", stats.BytesOut, len(got))
	}
}

func TestBamToSamMatchesConverter(t *testing.T) {
	_, bamPath := writeDataset(t, 300)
	outDir := t.TempDir()
	base := filepath.Join(outDir, "picard.sam")
	stats, err := BamToSam(bamPath, base)
	if err != nil {
		t.Fatalf("BamToSam: %v", err)
	}
	if stats.Records != 300 {
		t.Errorf("Records = %d", stats.Records)
	}
	res, err := conv.ConvertBAMSequential(bamPath, conv.Options{
		Format: "sam", OutDir: outDir, OutPrefix: "ours",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("baseline SAM differs from converter SAM")
	}
}

func TestSamToFastqRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.sam")
	if err := os.WriteFile(bad, []byte("not\tenough\tcolumns\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SamToFastq(bad, filepath.Join(dir, "out.fastq")); err == nil {
		t.Error("bad input accepted")
	}
	badFlag := filepath.Join(dir, "badflag.sam")
	line := "r\tXX\tchr1\t1\t0\t*\t*\t0\t0\tA\tI\n"
	if err := os.WriteFile(badFlag, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SamToFastq(badFlag, filepath.Join(dir, "out2.fastq")); err == nil {
		t.Error("bad FLAG accepted")
	}
}

func TestMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := SamToFastq(filepath.Join(dir, "nope.sam"), filepath.Join(dir, "o")); err == nil {
		t.Error("missing SAM accepted")
	}
	if _, err := BamToSam(filepath.Join(dir, "nope.bam"), filepath.Join(dir, "o")); err == nil {
		t.Error("missing BAM accepted")
	}
}

func TestUnwritableOutput(t *testing.T) {
	samPath, bamPath := writeDataset(t, 10)
	bad := filepath.Join(t.TempDir(), "missing", "out")
	if _, err := SamToFastq(samPath, bad); err == nil {
		t.Error("SamToFastq wrote into a missing directory")
	}
	if _, err := BamToSam(bamPath, bad); err == nil {
		t.Error("BamToSam wrote into a missing directory")
	}
}

func TestBamToSamRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "garbage.bam")
	if err := os.WriteFile(bad, []byte("not a bam"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BamToSam(bad, filepath.Join(dir, "o.sam")); err == nil {
		t.Error("garbage BAM accepted")
	}
}

func TestSamToFastqSkipsHeaderAndSecondary(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "h.sam")
	content := "@SQ\tSN:chr1\tLN:100\n" +
		"r1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n" +
		"r2\t256\tchr1\t5\t0\t4M\t*\t0\t0\tACGT\tIIII\n" // secondary: skipped
	if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "o.fastq")
	stats, err := SamToFastq(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 {
		t.Errorf("Records = %d", stats.Records)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "@"); got != 1 {
		t.Errorf("FASTQ entries = %d, want 1 (secondary skipped)", got)
	}
}
