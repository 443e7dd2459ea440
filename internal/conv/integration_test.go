package conv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"parseq/internal/formats"
	"parseq/internal/simdata"
)

// Property: for random datasets, partition counts and target formats,
// the parallel SAM converter's concatenated output equals the sequential
// reference conversion.
func TestConvertSAMParallelEqualsSequentialProperty(t *testing.T) {
	formatsList := formats.Names()
	f := func(seed int64, sizeSeed uint8, coreSeed uint8, fmtSeed uint8) bool {
		n := int(sizeSeed)%150 + 10
		cores := int(coreSeed)%6 + 1
		format := formatsList[int(fmtSeed)%len(formatsList)]

		cfg := simdata.DefaultConfig(n)
		cfg.Seed = seed
		d := simdata.Generate(cfg)
		dir := t.TempDir()
		samPath := filepath.Join(dir, "p.sam")
		sf, err := os.Create(samPath)
		if err != nil {
			return false
		}
		if err := d.WriteSAM(sf); err != nil {
			return false
		}
		if err := sf.Close(); err != nil {
			return false
		}

		res, err := ConvertSAM(samPath, Options{
			Format: format, Cores: cores, OutDir: dir, OutPrefix: "q",
		})
		if err != nil {
			return false
		}
		got := concatFiles(t, res.Files)
		return got == expected(t, d, format)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A malformed record inside one rank's partition must fail the whole
// conversion (no silent partial output), exercising the runtime's abort
// path.
func TestConvertSAMPropagatesMidPartitionError(t *testing.T) {
	samPath, _, _ := writeDataset(t, 200)
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	// Corrupt an alignment line near the middle.
	for i := len(lines) / 2; i < len(lines); i++ {
		if lines[i] != "" && lines[i][0] != '@' {
			lines[i] = "corrupted record line"
			break
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.sam")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 4} {
		if _, err := ConvertSAM(bad, Options{Format: "bed", Cores: cores, OutDir: t.TempDir()}); err == nil {
			t.Errorf("cores=%d: corrupted input converted without error", cores)
		}
	}
}

// A truncated BAMX file must fail cleanly at open or read time.
func TestConvertBAMXTruncatedInput(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 100)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "t.bamx")
	baixPath := filepath.Join(dir, "t.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.bamx")
	if err := os.WriteFile(trunc, data[:len(data)-13], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertBAMX(trunc, baixPath, Options{Format: "bed", OutDir: t.TempDir()}); err == nil {
		t.Error("truncated BAMX converted without error")
	}
}

// Unwritable output directories surface as errors from every converter.
func TestConvertersRejectUnwritableOutDir(t *testing.T) {
	samPath, bamPath, _ := writeDataset(t, 20)
	bad := filepath.Join(t.TempDir(), "missing", "nested")
	if _, err := ConvertSAM(samPath, Options{Format: "bed", OutDir: bad}); err == nil {
		t.Error("ConvertSAM wrote into a missing directory")
	}
	if _, err := ConvertBAMSequential(bamPath, Options{Format: "sam", OutDir: bad}); err == nil {
		t.Error("ConvertBAMSequential wrote into a missing directory")
	}
	if _, err := ConvertSAMToBAM(samPath, Options{OutDir: bad}); err == nil {
		t.Error("ConvertSAMToBAM wrote into a missing directory")
	}
}

// More ranks than records still tiles correctly for the BAMX converter.
func TestConvertBAMXMoreCoresThanRecords(t *testing.T) {
	_, bamPath, d := writeDataset(t, 5)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "s.bamx")
	baixPath := filepath.Join(dir, "s.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ConvertBAMX(bamxPath, baixPath, Options{
		Format: "sam", Cores: 16, OutDir: t.TempDir(), OutPrefix: "w",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := concatFiles(t, res.Files), expected(t, d, "sam"); got != want {
		t.Error("over-partitioned BAMX conversion differs")
	}
}
