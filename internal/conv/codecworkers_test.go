package conv

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bamx"
)

// The parallel BGZF codec must be invisible in the outputs: preprocessing
// a BAM with codec workers yields byte-identical BAMX/BAIX files, and a
// SAM→BAM conversion with codec workers yields byte-identical shards.
func TestCodecWorkersProduceIdenticalArtifacts(t *testing.T) {
	samPath, bamPath, _ := writeDataset(t, 400)
	dir := t.TempDir()

	seqX := filepath.Join(dir, "seq.bamx")
	seqIx := filepath.Join(dir, "seq.baix")
	parX := filepath.Join(dir, "par.bamx")
	parIx := filepath.Join(dir, "par.baix")
	if _, err := PreprocessBAMFile(bamPath, seqX, seqIx, 0); err != nil {
		t.Fatalf("sequential preprocess: %v", err)
	}
	if _, err := PreprocessBAMFile(bamPath, parX, parIx, 4); err != nil {
		t.Fatalf("parallel preprocess: %v", err)
	}
	mustEqualFiles(t, seqX, parX)
	mustEqualFiles(t, seqIx, parIx)

	// BAMZ compression with deflate workers is also byte-identical.
	seqZ := filepath.Join(dir, "seq.bamz")
	parZ := filepath.Join(dir, "par.bamz")
	if _, err := CompressBAMXFile(seqX, seqZ, 64); err != nil {
		t.Fatalf("sequential compress: %v", err)
	}
	if _, err := bamx.CompressFile(parX, parZ, 64, 4); err != nil {
		t.Fatalf("parallel compress: %v", err)
	}
	mustEqualFiles(t, seqZ, parZ)

	// SAM→BAM with codec workers on the writer side, then merge with
	// codec workers on both sides.
	optsSeq := Options{Format: "bam", Cores: 2, OutDir: filepath.Join(dir, "s"), OutPrefix: "shard"}
	optsPar := optsSeq
	optsPar.OutDir = filepath.Join(dir, "p")
	optsPar.CodecWorkers = 4
	for _, d := range []string{optsSeq.OutDir, optsPar.OutDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	resSeq, err := ConvertSAMToBAM(samPath, optsSeq)
	if err != nil {
		t.Fatalf("sequential SAM→BAM: %v", err)
	}
	resPar, err := ConvertSAMToBAM(samPath, optsPar)
	if err != nil {
		t.Fatalf("parallel SAM→BAM: %v", err)
	}
	if len(resSeq.Files) != len(resPar.Files) {
		t.Fatalf("shard counts differ: %d vs %d", len(resSeq.Files), len(resPar.Files))
	}
	for i := range resSeq.Files {
		mustEqualFiles(t, resSeq.Files[i], resPar.Files[i])
	}

	mergedSeq := filepath.Join(dir, "merged_seq.bam")
	mergedPar := filepath.Join(dir, "merged_par.bam")
	nSeq, err := MergeBAMShards(resSeq.Files, mergedSeq, 0)
	if err != nil {
		t.Fatalf("sequential merge: %v", err)
	}
	nPar, err := MergeBAMShards(resPar.Files, mergedPar, 4)
	if err != nil {
		t.Fatalf("parallel merge: %v", err)
	}
	if nSeq != nPar {
		t.Fatalf("merged record counts differ: %d vs %d", nSeq, nPar)
	}
	mustEqualFiles(t, mergedSeq, mergedPar)
}

// The full worker ladder — the adaptive default (0), sequential (1) and
// explicit pools (4, 8) — must produce byte-identical BAMX and BAIX
// files: codec parallelism and the parallel record scanner may never
// show in the preprocessing artifacts.
func TestPreprocessBAMWorkerSweepIdentical(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 400)
	dir := t.TempDir()
	refX := filepath.Join(dir, "ref.bamx")
	refIx := filepath.Join(dir, "ref.baix")
	if _, err := PreprocessBAMFile(bamPath, refX, refIx, 1); err != nil {
		t.Fatalf("workers=1 preprocess: %v", err)
	}
	for _, workers := range []int{0, 4, 8} {
		x := filepath.Join(dir, fmt.Sprintf("w%d.bamx", workers))
		ix := filepath.Join(dir, fmt.Sprintf("w%d.baix", workers))
		if _, err := PreprocessBAMFile(bamPath, x, ix, workers); err != nil {
			t.Fatalf("workers=%d preprocess: %v", workers, err)
		}
		mustEqualFiles(t, refX, x)
		mustEqualFiles(t, refIx, ix)
	}
}

func mustEqualFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("%s and %s differ (%d vs %d bytes)", a, b, len(da), len(db))
	}
}
