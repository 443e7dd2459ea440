package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/flagstat"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/mpinet"
	"parseq/internal/nlmeans"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// containers is one synthetic dataset in every container the engine
// reads, all named in.<ext> so the BAIX sidecar serves .bamx and .bamz.
type containers struct {
	sam, bam, bamx, bamz, pamx string
	baiBAM                     string // the .bam again, in another directory, beside its .bai
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
	if _, err := shard.Rewrite(in.bam, in.pamx); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(in.bam)
	if err != nil {
		t.Fatal(err)
	}
	var bai bytes.Buffer
	if err := bam.WriteIndexFile(bytes.NewReader(raw), &bai); err != nil {
		t.Fatal(err)
	}
	in.baiBAM = filepath.Join(t.TempDir(), "in.bam")
	for path, data := range map[string][]byte{in.baiBAM: raw, in.baiBAM + ".bai": bai.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
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
// direct library call. A job has no worker knob: every count under its
// ranks follows GOMAXPROCS, so each cell runs at a CPU budget of 1, 2
// and 4 against one library run, and the bytes must not move.
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
		// A .bam is read through its provider: with no .bai, one stream
		// shard, so rank 0's file holds every record, and the
		// concatenation is the two-phase BAM converter's bytes.
		{"convert/bam", Spec{InputPath: in.bam, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			return sameAsConvertBAM(convOpts(dir, ranks), in.bam)
		}},
		{"convert/bam+region", Spec{InputPath: in.bam, Format: "bed", Region: in.rname + ":1-40000"}, func(dir string, ranks int) ([]string, error) {
			opts := convOpts(dir, ranks)
			opts.Region = &conv.Region{RName: in.rname, Beg: 1, End: 40000}
			return sameAsConvertBAM(opts, in.bam)
		}},
		{"convert/bam+bai", Spec{InputPath: in.baiBAM, Format: "bed"}, func(dir string, ranks int) ([]string, error) {
			return sameAsConvertBAM(convOpts(dir, ranks), in.baiBAM)
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
		// A .pamx input reaches the per-rank BAM target like any other
		// container.
		{"convert/pamx", Spec{InputPath: in.pamx, Format: "bam"}, func(dir string, ranks int) ([]string, error) {
			opts := convOpts(dir, ranks)
			opts.Format = "bam"
			return files(conv.ConvertIndexed(in.pamx, "", opts))
		}},
		// A container format is one whole-file rewrite, whatever the
		// ranks; from SAM, bamx is psam's preprocessing, a pair per rank.
		{"convert/bam→pamx", Spec{InputPath: in.bam, Format: "pamx"}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.pamx")
			n, err := shard.Rewrite(in.bam, dst)
			return one(dst, n, err)
		}},
		{"convert/bamx→pamx", Spec{InputPath: in.bamx, Format: "pamx"}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.pamx")
			n, err := shard.Rewrite(in.bamx, dst)
			return one(dst, n, err)
		}},
		{"convert/bam→bamx", Spec{InputPath: in.bam, Format: "bamx"}, func(dir string, _ int) ([]string, error) {
			bamx, baix := filepath.Join(dir, "out.bamx"), filepath.Join(dir, "out.baix")
			_, err := conv.PreprocessBAMFile(in.bam, bamx, baix, 0)
			return []string{bamx, baix}, err
		}},
		{"convert/pamx→bamx", Spec{InputPath: in.pamx, Format: "bamx"}, func(dir string, _ int) ([]string, error) {
			dst := filepath.Join(dir, "out.bamx")
			_, err := shard.Rewrite(in.pamx, dst)
			return shard.Outputs(dst), err
		}},
		{"convert/sam→bamx", Spec{InputPath: in.sam, Format: "bamx"}, func(dir string, ranks int) ([]string, error) {
			pre, err := conv.PreprocessSAMParallel(in.sam, conv.Options{Cores: ranks, OutDir: dir, OutPrefix: "out"})
			if err != nil {
				return nil, err
			}
			var paths []string
			for i := range pre.BAMXFiles {
				paths = append(paths, pre.BAMXFiles[i], pre.BAIXFiles[i])
			}
			return paths, nil
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
		// A sort into .bamx or .pamx (outPaths) is the sort into BAM and
		// then the rewrite.
		{"sort/sam→bamx", Spec{Op: OpSort, InputPath: in.sam}, func(dir string, ranks int) ([]string, error) {
			sorted := filepath.Join(dir, "sorted.bam")
			if _, err := sorter.SortSAMToBAM(in.sam, sorted, sorter.Options{Cores: ranks, TmpDir: dir}); err != nil {
				return nil, err
			}
			bamx, baix := filepath.Join(dir, "out.bamx"), filepath.Join(dir, "out.baix")
			_, err := conv.PreprocessBAMFile(sorted, bamx, baix, 1)
			return []string{bamx, baix}, err
		}},
		{"sort/bam→pamx", Spec{Op: OpSort, InputPath: in.bam}, func(dir string, ranks int) ([]string, error) {
			sorted := filepath.Join(dir, "sorted.bam")
			if _, err := sorter.SortBAM(in.bam, sorted, sorter.Options{Cores: ranks, TmpDir: dir}); err != nil {
				return nil, err
			}
			dst := filepath.Join(dir, "out.pamx")
			n, err := shard.Rewrite(sorted, dst)
			return one(dst, n, err)
		}},
	}
	// The analyses read SAM text by Algorithm 1 partitioning and every
	// shard-provider container region-parallel.
	for _, input := range []string{in.sam, in.bam, in.baiBAM, in.bamx, in.bamz, in.pamx} {
		input, ext := input, filepath.Ext(input)
		name := ext[1:]
		if input == in.baiBAM {
			name = "bam+bai"
		}
		cells = append(cells,
			cell{"flagstat/" + name, Spec{Op: OpFlagstat, InputPath: input}, func(dir string, ranks int) ([]string, error) {
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
			cell{"hist/" + name, Spec{Op: OpHist, InputPath: input, RName: in.rname, BinSize: 150}, func(dir string, ranks int) ([]string, error) {
				h, err := histOf(input, ranks)
				if err != nil {
					return nil, err
				}
				return writeTo(dir, "hist.tsv", func(f *os.File) error { return hist.WriteTSV(f, h.Bins) })
			}},
			cell{"peaks/" + name, Spec{Op: OpPeaks, InputPath: input, RName: in.rname, BinSize: 150, Sims: 4, Seed: 7, Candidates: candidates}, func(dir string, ranks int) ([]string, error) {
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

	// The statistics module reads a histogram TSV; each rank holds all of
	// it, so the bytes are the one-core library run's at every rank count.
	bins := simdata.Histogram(2000, 5)
	histTSV, err := writeTo(t.TempDir(), "in.tsv", func(f *os.File) error { return hist.WriteTSV(f, bins) })
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells,
		cell{"nlmeans/tsv", Spec{Op: OpNLMeans, InputPath: histTSV[0], R: 20, L: 15, Sigma: 10}, func(dir string, _ int) ([]string, error) {
			denoised, err := nlmeans.DenoiseParallel(bins, nlmeans.Params{R: 20, L: 15, Sigma: 10}, 1)
			if err != nil {
				return nil, err
			}
			return writeTo(dir, "denoised.tsv", func(f *os.File) error { return hist.WriteTSV(f, denoised) })
		}},
		cell{"fdr/tsv", Spec{Op: OpFDR, InputPath: histTSV[0], PT: 2, Sims: 4, Seed: 7}, func(dir string, _ int) ([]string, error) {
			rate, err := fdr.Sequential(bins, simdata.Simulations(4, len(bins), 7), 2)
			if err != nil {
				return nil, err
			}
			return writeTo(dir, "fdr.tsv", func(f *os.File) error {
				_, err := fmt.Fprintf(f, "2\t%s\n", strconv.FormatFloat(rate, 'g', -1, 64))
				return err
			})
		}},
	)

	for _, ranks := range []int{1, 3} {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/ranks%d", c.name, ranks), func(t *testing.T) {
				want, err := c.direct(t.TempDir(), ranks)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						spec := c.spec
						spec.Ranks = ranks
						env := cellEnv(c.name, t.TempDir())
						res, err := Run(spec, env)
						if err != nil {
							t.Fatal(err)
						}
						checkFiles(t, res, env.OutDir, want)
					})
				}
			})
		}
	}

	// The world table: each cell on two- and three-rank loopback TCP
	// worlds, one goroutine per rank with its own World and Run. Rank 0's
	// Result is the in-process one, timings masked; the directory holds
	// its files, byte for byte, and nothing else; every other rank's
	// Result is empty. psam refuses a world
	// (TestPSAMRefusedOnDistributedWorld).
	for _, size := range []int{2, 3} {
		for _, c := range cells {
			if c.spec.Converter == "psam" {
				continue
			}
			t.Run(fmt.Sprintf("%s/world%d", c.name, size), func(t *testing.T) {
				spec := c.spec
				spec.Ranks = size
				inDir, worldDir := t.TempDir(), t.TempDir()
				want, err := Run(spec, cellEnv(c.name, inDir))
				if err != nil {
					t.Fatal(err)
				}
				got := make([]Result, size)
				runLoopbackWorld(t, size, func(w *mpinet.World) (err error) {
					env := cellEnv(c.name, worldDir)
					env.Launch, env.Rank = w.Launcher(), w.Rank()
					got[w.Rank()], err = Run(spec, env)
					return err
				})
				got[0].Summary = strings.ReplaceAll(got[0].Summary, worldDir, inDir)
				if masked := maskTimes(got[0]); !reflect.DeepEqual(masked, maskTimes(want)) {
					t.Errorf("rank 0's Result differs from the in-process one:\n%+v\n%+v", masked, maskTimes(want))
				}
				for rank, res := range got[1:] {
					if !reflect.DeepEqual(res, Result{}) {
						t.Errorf("rank %d's Result is not empty: %+v", rank+1, res)
					}
				}
				var paths []string
				for _, f := range want.Files {
					paths = append(paths, filepath.Join(inDir, f.Name))
				}
				checkFiles(t, got[0], worldDir, paths)
			})
		}
	}
}

// cellEnv places a TestRunMatchesLibrary cell's outputs in dir: its
// OutDir, and for the sorts into a container the OutPath naming it.
func cellEnv(cell, dir string) Env {
	env := Env{OutDir: dir}
	if name, ok := map[string]string{"sort/sam→bamx": "out.bamx", "sort/bam→pamx": "out.pamx"}[cell]; ok {
		env.OutPath = filepath.Join(dir, name)
	}
	return env
}

// durations matches what time.Duration.String prints.
var durations = regexp.MustCompile(`[0-9][0-9.]*(ns|µs|ms|s|m|h)`)

// maskTimes blanks the durations in a Result's Summary.
func maskTimes(res Result) Result {
	res.Summary = durations.ReplaceAllString(res.Summary, "T")
	return res
}

// runLoopbackWorld forms a real loopback TCP world of size single-rank
// processes-in-goroutines and runs fn once per rank with its world.
func runLoopbackWorld(t *testing.T, size int, fn func(w *mpinet.World) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			w, err := mpinet.Connect(mpinet.Config{
				Rank: rank, World: size, Coord: coord,
				DialTimeout: 10 * time.Second, JoinTimeout: 30 * time.Second, WaitTimeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			errs[rank] = fn(w)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// sameAsConvertBAM converts bamPath through its provider under opts and
// checks that the concatenated output is conv.ConvertBAM's.
func sameAsConvertBAM(opts conv.Options, bamPath string) ([]string, error) {
	res, err := conv.ConvertIndexed(bamPath, "", opts)
	if err != nil {
		return nil, err
	}
	opts.OutDir = filepath.Join(opts.OutDir, "two-phase")
	if err := os.Mkdir(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	ref, err := conv.ConvertBAM(bamPath, opts)
	if err != nil {
		return nil, err
	}
	got, err := concat(res.Files)
	if err != nil {
		return nil, err
	}
	want, err := concat(ref.Files)
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("%s: %d bytes through the provider, %d from ConvertBAM", bamPath, len(got), len(want))
	}
	return res.Files, err
}

// concat is the files' bytes end to end.
func concat(paths []string) ([]byte, error) {
	var all []byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		all = append(all, data...)
	}
	return all, nil
}

// checkFiles compares the files Run left in outDir with the library's,
// name by name and byte for byte, and the Result's sizes with the files;
// outDir must hold nothing the Result does not name.
func checkFiles(t *testing.T, res Result, outDir string, want []string) {
	t.Helper()
	if len(res.Files) != len(want) {
		t.Fatalf("Run left %d files, the library %d", len(res.Files), len(want))
	}
	if left, err := os.ReadDir(outDir); err != nil || len(left) != len(res.Files) {
		var names []string
		for _, e := range left {
			names = append(names, e.Name())
		}
		t.Errorf("outDir holds %v (%v), the Result names %d files", names, err, len(res.Files))
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
}

// TestEnvPlacesOutputs pins the destination rules the front ends rely
// on: OutPath renames a single-file output, an analysis with no
// destination writes nothing and answers in its Result, and OutPrefix
// names convert's rank files.
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

	res, err = Run(Spec{InputPath: in.sam, Format: "bed", Ranks: 3}, Env{OutDir: dir, OutPrefix: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 3 || res.Files[2].Name != "x_p002.bed" {
		t.Fatalf("convert with OutPrefix: %v", res.Files)
	}
}

// TestReportFailureLeavesNoFile: an analysis whose write fails midway
// removes the partial report rather than leave a short flagstat.txt.
func TestReportFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	boom := fmt.Errorf("disk full")
	env := Env{OutDir: dir}
	o, err := env.report(1, "flagstat.txt", "", func(w io.Writer) error {
		io.WriteString(w, "half a rep")
		return boom
	})
	if err != boom || o.paths != nil {
		t.Fatalf("report = %v, %v; want the write's error", o.paths, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed report left %d files", len(left))
	}
}

// TestConvertKindNeedsItsContainer: the provider is picked by extension,
// so an explicit converter over another container is refused by name
// rather than read as whatever the extension says; a name with no known
// extension reads as BAM.
func TestConvertKindNeedsItsContainer(t *testing.T) {
	in := makeContainers(t, 200)
	for _, tc := range []struct{ kind, input string }{{"bamx", in.bam}, {"bam", in.bamx}, {"bam", in.pamx}} {
		dir := t.TempDir()
		_, err := Run(Spec{Converter: tc.kind, InputPath: tc.input, Format: "bed"}, Env{OutDir: dir})
		if err == nil || !strings.Contains(err.Error(), "needs a ."+tc.kind+" input") {
			t.Fatalf("converter %s over %s: %v", tc.kind, filepath.Base(tc.input), err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("refused job left %d files", len(left))
		}
	}
	raw, err := os.ReadFile(in.bam)
	if err != nil {
		t.Fatal(err)
	}
	dat := filepath.Join(t.TempDir(), "reads.dat")
	if err := os.WriteFile(dat, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Spec{Converter: "bam", InputPath: dat, Format: "bed"}, Env{OutDir: t.TempDir()}); err != nil {
		t.Fatalf("converter bam over a .dat input: %v", err)
	}
}

// TestPSAMRefusedOnDistributedWorld: psam's preprocessing fills only
// the local rank's BAMX pair, so on a distributed launcher each process
// would convert a share of the input; the job is refused by name on
// every rank before any file is written, in either of psam's routes,
// on an in-process launcher and on a loopback TCP world alike.
func TestPSAMRefusedOnDistributedWorld(t *testing.T) {
	in := makeContainers(t, 200)
	refused := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "converter sam") && strings.Contains(err.Error(), "format bamx")
	}
	for _, format := range []string{"bed", "bamx"} {
		spec := Spec{Converter: "psam", InputPath: in.sam, Format: format, Ranks: 2}
		dir := t.TempDir()
		if _, err := Run(spec, Env{OutDir: dir, Launch: mpi.Run}); !refused(err) {
			t.Fatalf("psam to %s on a launcher: %v", format, err)
		}
		runLoopbackWorld(t, 2, func(w *mpinet.World) error {
			if _, err := Run(spec, Env{OutDir: dir, Launch: w.Launcher(), Rank: w.Rank()}); !refused(err) {
				return fmt.Errorf("psam to %s on a TCP world: %v", format, err)
			}
			return nil
		})
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("refused job left %d files", len(left))
		}
	}
}

// TestUnknownMateReferenceRefused: a SAM record whose RNEXT the header
// lacks fails every job that encodes it to BAM — seqconvert -format bam
// and -format bamx, samsort — with bam.ErrInvalidRecord, and a container
// write leaves no file.
func TestUnknownMateReferenceRefused(t *testing.T) {
	in := filepath.Join(t.TempDir(), "mate.sam")
	if err := os.WriteFile(in, []byte("@SQ\tSN:chr1\tLN:1000\nr1\t99\tchr1\t5\t30\t4M\tchrZ\t9\t0\tACGT\tIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		spec      Spec
		container bool
	}{
		{"bam shards", Spec{InputPath: in, Format: "bam"}, false},
		{"bamx", Spec{InputPath: in, Format: "bamx"}, true},
		{"sort", Spec{Op: OpSort, InputPath: in}, true},
	} {
		dir := t.TempDir()
		if _, err := Run(tc.spec, Env{OutDir: dir}); !errors.Is(err, bam.ErrInvalidRecord) {
			t.Errorf("%s: %v, want bam.ErrInvalidRecord", tc.name, err)
		}
		if left, _ := os.ReadDir(dir); tc.container && len(left) != 0 {
			t.Errorf("%s: the failed write left %d files", tc.name, len(left))
		}
	}
}

// TestUnsortedBAMAnalyses: flagstat and the histogram of a BAM that is
// not coordinate-sorted and has no .bai equal the SAM route's at one and
// three ranks — a bare BAM's one piece needs neither an index nor an order.
func TestUnsortedBAMAnalyses(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(2000))
	rand.New(rand.NewSource(3)).Shuffle(len(d.Records), func(i, j int) { d.Records[i], d.Records[j] = d.Records[j], d.Records[i] })
	dir := t.TempDir()
	samPath, bamPath := filepath.Join(dir, "u.sam"), filepath.Join(dir, "u.bam")
	for path, write := range map[string]func(io.Writer) error{samPath: d.WriteSAM, bamPath: d.WriteBAM} {
		if _, err := writeTo(dir, filepath.Base(path), func(f *os.File) error { return write(f) }); err != nil {
			t.Fatal(err)
		}
	}
	rname := d.Header.RefByID(0).Name
	for _, ranks := range []int{1, 3} {
		for _, spec := range []Spec{{Op: OpFlagstat}, {Op: OpHist, RName: rname, BinSize: 150}} {
			var out [2][]byte
			for i, input := range []string{samPath, bamPath} {
				spec.InputPath, spec.Ranks = input, ranks
				outDir := t.TempDir()
				res, err := Run(spec, Env{OutDir: outDir})
				if err != nil {
					t.Fatalf("%s of %s at %d ranks: %v", spec.Op, filepath.Base(input), ranks, err)
				}
				if out[i], err = os.ReadFile(filepath.Join(outDir, res.Files[0].Name)); err != nil {
					t.Fatal(err)
				}
			}
			if len(out[0]) == 0 || !bytes.Equal(out[0], out[1]) {
				t.Errorf("%s at %d ranks: the unsorted BAM's report differs from the SAM's", spec.Op, ranks)
			}
		}
	}
}

// TestFailedConvertLeavesNoFile: a SAM→BAM conversion that fails on one
// record's bad tag, and a SAM→BED one that fails on a bad FLAG, leave no
// target file in the output directory — not the failing rank's partial
// file, nor a finished rank's — at one and two ranks, in one process
// and on a two-process loopback world.
func TestFailedConvertLeavesNoFile(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(2000))
	var text bytes.Buffer
	if err := d.WriteSAM(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(text.String(), "\n")
	last := len(lines) - 2 // the last alignment line: rank 1's share at two ranks
	for _, c := range []struct{ format, field string }{{"bam", "XX:Q:1"}, {"bed", "notaflag"}} {
		bad := slices.Clone(lines)
		fields := strings.Split(strings.TrimSuffix(bad[last], "\n"), "\t")
		if c.format == "bam" {
			fields = append(fields, c.field)
		} else {
			fields[1] = c.field
		}
		bad[last] = strings.Join(fields, "\t") + "\n"
		in := filepath.Join(t.TempDir(), "bad.sam")
		if err := os.WriteFile(in, []byte(strings.Join(bad, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2} {
			spec := Spec{InputPath: in, Format: c.format, Ranks: ranks}
			dir := t.TempDir()
			if _, err := Run(spec, Env{OutDir: dir}); err == nil {
				t.Fatalf("%s at %d ranks: no error", c.format, ranks)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("%s at %d ranks: the failed job left %d files", c.format, ranks, len(left))
			}
		}
		dir := t.TempDir()
		runLoopbackWorld(t, 2, func(w *mpinet.World) error {
			if _, err := Run(Spec{InputPath: in, Format: c.format, Ranks: 2}, Env{OutDir: dir, Launch: w.Launcher(), Rank: w.Rank()}); err == nil {
				return fmt.Errorf("%s on a TCP world: rank %d: no error", c.format, w.Rank())
			}
			return nil
		})
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s on a TCP world: the failed job left %d files", c.format, len(left))
		}
	}
}

// TestFailedJobKeepsExistingOutput: a sort or a container rewrite that
// fails leaves an output that already existed byte-identical — its
// commit by rename never happened — in one process and, for the sort,
// on a two-process loopback world.
func TestFailedJobKeepsExistingOutput(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(2000))
	var text, bin bytes.Buffer
	if err := d.WriteSAM(&text); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(&bin); err != nil {
		t.Fatal(err)
	}
	in := t.TempDir()
	badSAM := filepath.Join(in, "bad.sam")
	lines := strings.SplitAfter(text.String(), "\n")
	lines[len(lines)-2] = strings.TrimSuffix(lines[len(lines)-2], "\n") + "\tXX:Q:1\n"
	cutBAM := filepath.Join(in, "cut.bam") // ends inside a BGZF member
	if err := os.WriteFile(badSAM, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cutBAM, bin.Bytes()[:bin.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		spec  Spec
		out   string   // the Env.OutPath, if any
		files []string // the outputs planted beforehand
	}{
		{"sort/sam→bam", Spec{Op: OpSort, InputPath: badSAM}, "out.bam", []string{"out.bam"}},
		{"sort/bam→bam", Spec{Op: OpSort, InputPath: cutBAM}, "out.bam", []string{"out.bam"}},
		{"convert/bam→bamx", Spec{InputPath: cutBAM, Format: "bamx"}, "", []string{"out.bamx", "out.baix"}},
		{"convert/bam→pamx", Spec{InputPath: cutBAM, Format: "pamx"}, "", []string{"out.pamx"}},
	}
	plant := func(t *testing.T, dir string, files []string) {
		for _, name := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("keep "+name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, what, dir string, files []string) {
		for _, name := range files {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != "keep "+name {
				t.Errorf("%s: %s after the failed job: %q, %v", what, name, got, err)
			}
		}
	}
	for _, c := range cases {
		dir := t.TempDir()
		plant(t, dir, c.files)
		env := Env{OutDir: dir}
		if c.out != "" {
			env.OutPath = filepath.Join(dir, c.out)
		}
		if _, err := Run(c.spec, env); err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		check(t, c.name, dir, c.files)
	}
	dir := t.TempDir()
	plant(t, dir, []string{"out.bam"})
	runLoopbackWorld(t, 2, func(w *mpinet.World) error {
		env := Env{OutDir: dir, OutPath: filepath.Join(dir, "out.bam"), Launch: w.Launcher(), Rank: w.Rank()}
		if _, err := Run(Spec{Op: OpSort, InputPath: badSAM, Ranks: 2}, env); err == nil {
			return fmt.Errorf("sort on a TCP world: rank %d: no error", w.Rank())
		}
		return nil
	})
	check(t, "sort on a TCP world", dir, []string{"out.bam"})
}
