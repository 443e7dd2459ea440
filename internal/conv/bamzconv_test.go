package conv

import (
	"os"
	"path/filepath"
	"testing"
)

// prepBAMZ preprocesses the dataset's BAM into plain and compressed BAMX.
func prepBAMZ(t *testing.T, n int) (bamxPath, bamzPath, baixPath string) {
	t.Helper()
	_, bamPath, _ := writeDataset(t, n)
	dir := t.TempDir()
	bamxPath = filepath.Join(dir, "d.bamx")
	bamzPath = filepath.Join(dir, "d.bamz")
	baixPath = filepath.Join(dir, "d.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	count, err := CompressBAMXFile(bamxPath, bamzPath, 64)
	if err != nil {
		t.Fatalf("CompressBAMXFile: %v", err)
	}
	if count != int64(n) {
		t.Fatalf("compressed %d records, want %d", count, n)
	}
	return bamxPath, bamzPath, baixPath
}

func TestCompressedFileSmaller(t *testing.T) {
	bamxPath, bamzPath, _ := prepBAMZ(t, 400)
	xi, err := os.Stat(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	zi, err := os.Stat(bamzPath)
	if err != nil {
		t.Fatal(err)
	}
	if zi.Size() >= xi.Size() {
		t.Errorf("compressed %d bytes ≥ plain %d", zi.Size(), xi.Size())
	}
}

func TestConvertBAMZMatchesPlain(t *testing.T) {
	bamxPath, bamzPath, baixPath := prepBAMZ(t, 400)
	for _, format := range []string{"sam", "bed", "fastq"} {
		for _, cores := range []int{1, 3} {
			plain, err := ConvertBAMX(bamxPath, baixPath, Options{
				Format: format, Cores: cores, OutDir: t.TempDir(), OutPrefix: "p",
			})
			if err != nil {
				t.Fatal(err)
			}
			comp, err := ConvertBAMZ(bamzPath, baixPath, Options{
				Format: format, Cores: cores, OutDir: t.TempDir(), OutPrefix: "z",
			})
			if err != nil {
				t.Fatalf("ConvertBAMZ(%s, cores=%d): %v", format, cores, err)
			}
			if got, want := concatFiles(t, comp.Files), concatFiles(t, plain.Files); got != want {
				t.Errorf("%s cores=%d: compressed conversion differs from plain", format, cores)
			}
			if comp.Stats.Records != plain.Stats.Records {
				t.Errorf("records %d vs %d", comp.Stats.Records, plain.Stats.Records)
			}
		}
	}
}

func TestConvertBAMZPartialMatchesPlain(t *testing.T) {
	bamxPath, bamzPath, baixPath := prepBAMZ(t, 500)
	region := &Region{RName: "chr1", Beg: 1, End: 90000}
	plain, err := ConvertBAMX(bamxPath, baixPath, Options{
		Format: "sam", Cores: 2, OutDir: t.TempDir(), OutPrefix: "p", Region: region,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ConvertBAMZ(bamzPath, baixPath, Options{
		Format: "sam", Cores: 2, OutDir: t.TempDir(), OutPrefix: "z", Region: region,
	})
	if err != nil {
		t.Fatalf("partial ConvertBAMZ: %v", err)
	}
	if plain.Stats.Records == 0 {
		t.Fatal("region selected no records")
	}
	if got, want := concatFiles(t, comp.Files), concatFiles(t, plain.Files); got != want {
		t.Error("compressed partial conversion differs from plain")
	}
}

func TestConvertBAMZPartialRequiresIndex(t *testing.T) {
	_, bamzPath, baixPath := prepBAMZ(t, 100)
	// "" means the sidecar beside the file; without one there is no
	// plain-file scan to rebuild it from.
	if err := os.Remove(baixPath); err != nil {
		t.Fatal(err)
	}
	_, err := ConvertBAMZ(bamzPath, "", Options{
		Format: "sam", OutDir: t.TempDir(),
		Region: &Region{RName: "chr1", Beg: 1},
	})
	if err == nil {
		t.Error("partial conversion without BAIX succeeded")
	}
}

func TestConvertBAMZRejectsPlainFile(t *testing.T) {
	bamxPath, _, baixPath := prepBAMZ(t, 50)
	if _, err := ConvertBAMZ(bamxPath, baixPath, Options{Format: "sam", OutDir: t.TempDir()}); err == nil {
		t.Error("plain BAMX accepted by ConvertBAMZ")
	}
}
