package engine

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parseq/internal/conv"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// containers is one synthetic dataset in every container the engine
// reads, all named in.<ext> so the BAIX sidecar serves .bamx and .bamz.
type containers struct {
	sam, bam, bamx, bamz, pamx string
	rname                      string
}

func makeContainers(t *testing.T, reads int) containers {
	t.Helper()
	dir := t.TempDir()
	in := containers{
		sam: filepath.Join(dir, "in.sam"), bam: filepath.Join(dir, "in.bam"),
		bamx: filepath.Join(dir, "in.bamx"), bamz: filepath.Join(dir, "in.bamz"),
		pamx: filepath.Join(dir, "in.pamx"),
	}
	d := simdata.Generate(simdata.DefaultConfig(reads))
	in.rname = d.Header.RefByID(0).Name
	for path, write := range map[string]func(*os.File) error{
		in.sam: func(f *os.File) error { return d.WriteSAM(f) },
		in.bam: func(f *os.File) error { return d.WriteBAM(f) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conv.PreprocessBAMFile(in.bam, in.bamx, filepath.Join(dir, "in.baix"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.CompressBAMXFile(in.bamx, in.bamz, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := pamx.FromBAM(in.bam, in.pamx, pamx.Options{}); err != nil {
		t.Fatal(err)
	}
	return in
}

// writeTo creates dir/name through write and returns its path.
func writeTo(dir, name string, write func(f *os.File) error) ([]string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := write(f); err != nil {
		f.Close()
		return nil, err
	}
	return []string{path}, f.Close()
}

// TestRunMatchesLibrary is the engine's contract: for every op over
// every container it reads, at 1 and 3 ranks, the files Run leaves in
// OutDir carry the names the daemon always used and the bytes of the
// direct library call.
func TestRunMatchesLibrary(t *testing.T) {
	in := makeContainers(t, 1500)
	candidates := []float64{1, 2, 5}

	// direct runs the library call a cell stands for, leaving files
	// under dir, and returns them in rank order.
	type direct func(dir string, ranks int) ([]string, error)
	convOpts := func(dir string, ranks int) conv.Options {
		return conv.Options{Format: "bed", Cores: ranks, OutDir: dir, OutPrefix: "out"}
	}
	files := func(res *conv.Result, err error) ([]string, error) {
		if err != nil {
			return nil, err
		}
		return res.Files, nil
	}
	one := func(path string, _ int64, err error) ([]string, error) { return []string{path}, err }
	histOf := func(input string, ranks int) (*hist.Histogram, error) {
		if strings.HasSuffix(input, ".sam") {
			return hist.FromSAMParallel(input, in.rname, 150, ranks, nil)
		}
		p := shard.OpenPathProvider(input)
		defer p.Close()
		return hist.FromProvider(p, in.rname, 150, shard.Config{Ranks: ranks})
	}

	type cell struct {
		name   string
		spec   Spec
		direct direct
	}
	cells := []cell{
		{"convert/sam", Spec{InputPath: in.sam, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			return files(conv.ConvertSAM(in.sam, convOpts(dir, ranks)))
		}},
		{"convert/psam", Spec{InputPath: in.sam, Format: "bed", Converter: "psam"}, func(dir string, ranks int) ([]string, error) {
			return files(conv.ConvertSAMPreprocessed(in.sam, ranks, convOpts(dir, ranks)))
		}},
		{"convert/bam", Spec{InputPath: in.bam, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			if ranks > 1 {
				return files(conv.ConvertBAM(in.bam, convOpts(dir, ranks)))
			}
			return files(conv.ConvertBAMSequential(in.bam, convOpts(dir, ranks)))
		}},
		{"convert/bamx", Spec{InputPath: in.bamx, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			return files(conv.ConvertBAMX(in.bamx, "", convOpts(dir, ranks)))
		}},
		{"convert/bamx+region", Spec{InputPath: in.bamx, Format: "bed", Region: in.rname + ":1-40000"}, func(dir string, ranks int) ([]string, error) {
			opts := convOpts(dir, ranks)
			opts.Region = &conv.Region{RName: in.rname, Beg: 1, End: 40000}
			return files(conv.ConvertBAMX(in.bamx, strings.TrimSuffix(in.bamx, ".bamx")+".baix", opts))
		}},
		{"convert/bamz", Spec{InputPath: in.bamz, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			return files(conv.ConvertBAMZ(in.bamz, "", convOpts(dir, ranks)))
		}},
		{"convert/pamx→sam", Spec{InputPath: in.pamx, Format: "sam"}, func(dir string, ranks int) ([]string, error) {
			opts := convOpts(dir, ranks)
			opts.Format = "sam"
			return files(conv.ConvertIndexed(in.pamx, "", opts))
		}},
		{"convert/pamx→bed+region", Spec{InputPath: in.pamx, Format: "bed", Region: in.rname + ":1-40000"}, func(dir string, ranks int) ([]string, error) {
			opts := convOpts(dir, ranks)
			opts.Region = &conv.Region{RName: in.rname, Beg: 1, End: 40000}
			return files(conv.ConvertIndexed(in.pamx, "", opts))
		}},
		{"convert/pamx", Spec{InputPath: in.pamx}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.bam")
			n, err := pamx.ToBAM(in.pamx, dst, pamx.Options{})
			return one(dst, n, err)
		}},
		{"convert/bam→pamx", Spec{InputPath: in.bam, Converter: "pamx"}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.pamx")
			n, err := pamx.FromBAM(in.bam, dst, pamx.Options{})
			return one(dst, n, err)
		}},
		{"convert/bamx→pamx", Spec{InputPath: in.bamx, Converter: "pamx"}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.pamx")
			n, err := pamx.FromBAMX(in.bamx, dst, pamx.Options{})
			return one(dst, n, err)
		}},
		{"sort/sam", Spec{Op: OpSort, InputPath: in.sam}, func(dir string, ranks int) ([]string, error) {
			dst := filepath.Join(dir, "out.bam")
			n, err := sorter.SortSAMToBAM(in.sam, dst, sorter.Options{Cores: ranks, TmpDir: dir})
			return one(dst, n, err)
		}},
		{"sort/bam", Spec{Op: OpSort, InputPath: in.bam}, func(dir string, ranks int) ([]string, error) {
			dst := filepath.Join(dir, "out.bam")
			n, err := sorter.SortBAM(in.bam, dst, sorter.Options{Cores: ranks, TmpDir: dir})
			return one(dst, n, err)
		}},
	}
	// The analyses read SAM text by Algorithm 1 partitioning and every
	// shard-provider container region-parallel.
	for _, input := range []string{in.sam, in.bam, in.bamx, in.bamz, in.pamx} {
		input, ext := input, filepath.Ext(input)
		cells = append(cells,
			cell{"flagstat/" + ext[1:], Spec{Op: OpFlagstat, InputPath: input}, func(dir string, ranks int) ([]string, error) {
				var (
					st  flagstat.Stats
					err error
				)
				if ext == ".sam" {
					st, err = flagstat.SAMFile(input, ranks, nil)
				} else {
					p := shard.OpenPathProvider(input)
					defer p.Close()
					st, err = flagstat.Sharded(p, shard.Config{Ranks: ranks})
				}
				if err != nil {
					return nil, err
				}
				return writeTo(dir, "flagstat.txt", func(f *os.File) error {
					_, err := f.WriteString(st.Format())
					return err
				})
			}},
			cell{"hist/" + ext[1:], Spec{Op: OpHist, InputPath: input, RName: in.rname, BinSize: 150}, func(dir string, ranks int) ([]string, error) {
				h, err := histOf(input, ranks)
				if err != nil {
					return nil, err
				}
				return writeTo(dir, "hist.tsv", func(f *os.File) error { return hist.WriteTSV(f, h.Bins) })
			}},
			cell{"peaks/" + ext[1:], Spec{Op: OpPeaks, InputPath: input, RName: in.rname, BinSize: 150, Sims: 4, Seed: 7, Candidates: candidates}, func(dir string, ranks int) ([]string, error) {
				h, err := histOf(input, ranks)
				if err != nil {
					return nil, err
				}
				called, _, _, err := peaks.CallWithFDR(h.Bins, simdata.Simulations(4, len(h.Bins), 7), candidates, peaks.Options{})
				if err != nil {
					return nil, err
				}
				return writeTo(dir, "peaks.tsv", func(f *os.File) error {
					for _, p := range called {
						fmt.Fprintf(f, "%s\t%d\t%d\t%g\t%d\n", in.rname, p.Start*150, p.End*150, p.MaxValue, p.MinSurvive)
					}
					return nil
				})
			}},
		)
	}

	for _, ranks := range []int{1, 3} {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/ranks%d", c.name, ranks), func(t *testing.T) {
				spec := c.spec
				spec.Ranks = ranks
				outDir := t.TempDir()
				res, err := Run(spec, Env{OutDir: outDir})
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.direct(t.TempDir(), ranks)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Files) != len(want) {
					t.Fatalf("Run left %d files, the library %d", len(res.Files), len(want))
				}
				var total int64
				for i, f := range res.Files {
					if f.Name != filepath.Base(want[i]) {
						t.Errorf("file %d named %q, want %q", i, f.Name, filepath.Base(want[i]))
					}
					ref, err := os.ReadFile(want[i])
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(filepath.Join(outDir, f.Name))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, ref) {
						t.Errorf("%s differs from the library's output (%d vs %d bytes)", f.Name, len(got), len(ref))
					}
					if int64(len(got)) != f.Size {
						t.Errorf("%s: reported size %d, file holds %d bytes", f.Name, f.Size, len(got))
					}
					total += f.Size
				}
				if res.BytesOut != total {
					t.Errorf("BytesOut = %d, files sum to %d", res.BytesOut, total)
				}
				if res.Records <= 0 || res.Summary == "" {
					t.Errorf("Records = %d, Summary = %q", res.Records, res.Summary)
				}
			})
		}
	}
}

// TestEnvPlacesOutputs pins the destination rules the front ends rely
// on: OutPath renames a single-file output, an analysis with no
// destination writes nothing and answers in its Result, OutPrefix names
// convert's rank files, and ConvertOutputs reconstructs exactly those
// names.
func TestEnvPlacesOutputs(t *testing.T) {
	in := makeContainers(t, 600)
	dir := t.TempDir()

	// samstat's shape: no destination.
	res, err := Run(Spec{Op: OpFlagstat, InputPath: in.sam}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 0 || !strings.Contains(res.Summary, "in total") {
		t.Fatalf("destination-less flagstat: files %v, summary %q", res.Files, res.Summary)
	}
	if _, err := os.Stat("flagstat.txt"); err == nil {
		os.Remove("flagstat.txt")
		t.Fatal("destination-less flagstat wrote flagstat.txt into the working directory")
	}

	dst := filepath.Join(dir, "cov.tsv")
	res, err = Run(Spec{Op: OpHist, InputPath: in.bamx, RName: in.rname}, Env{OutPath: dst})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 || res.Files[0].Name != "cov.tsv" || !strings.HasSuffix(res.Summary, "→ "+dst) {
		t.Fatalf("hist to OutPath: files %v, summary %q", res.Files, res.Summary)
	}

	spec := Spec{InputPath: in.sam, Format: "bed", Ranks: 3}
	env := Env{OutDir: dir, OutPrefix: "x"}
	res, err = Run(spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 3 || res.Files[2].Name != "x_p002.bed" {
		t.Fatalf("convert with OutPrefix: %v", res.Files)
	}
	listed, total, err := ConvertOutputs(&spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(listed, res.Files) || total != res.BytesOut {
		t.Fatalf("ConvertOutputs = %v (%d bytes), Run reported %v (%d bytes)", listed, total, res.Files, res.BytesOut)
	}
}

// TestReportFailureLeavesNoFile: an analysis whose write fails midway
// removes the partial report rather than leave a short flagstat.txt.
func TestReportFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	boom := fmt.Errorf("disk full")
	env := Env{OutDir: dir}
	paths, err := env.report("flagstat.txt", nil, func(w io.Writer) error {
		io.WriteString(w, "half a rep")
		return boom
	})
	if err != boom || paths != nil {
		t.Fatalf("report = %v, %v; want the write's error", paths, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed report left %d files", len(left))
	}
}

// TestConvertKindNeedsItsContainer: the provider is picked by extension,
// so an explicit converter over another container is refused by name
// rather than read as whatever the extension says.
func TestConvertKindNeedsItsContainer(t *testing.T) {
	in := makeContainers(t, 200)
	dir := t.TempDir()
	_, err := Run(Spec{Converter: "bamx", InputPath: in.bam, Format: "bed"}, Env{OutDir: dir})
	if err == nil || !strings.Contains(err.Error(), ".bamx") {
		t.Fatalf("converter bamx over a .bam input: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused job left %d files", len(left))
	}
}
