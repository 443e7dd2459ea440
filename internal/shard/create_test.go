package shard

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/leakcheck"
	"parseq/internal/sam"
)

// sinkRef is what a container's own writer makes of bodies: the file's
// bytes and, for a BAMX, its BAIX's.
type sinkRef func(t *testing.T, h *sam.Header, bodies [][]byte) (file, index []byte)

var sinkRefs = map[string]sinkRef{
	".bam": func(t *testing.T, h *sam.Header, bodies [][]byte) ([]byte, []byte) {
		var buf bytes.Buffer
		w, err := bam.NewWriter(&buf, h, bam.WithCodecWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		var rec []byte
		for _, body := range bodies {
			rec = append(append(rec[:0], byte(len(body)), byte(len(body)>>8), byte(len(body)>>16), byte(len(body)>>24)), body...)
			if err := w.WriteEncoded(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), nil
	},
	".bamx": func(t *testing.T, h *sam.Header, bodies [][]byte) ([]byte, []byte) {
		recs := make([]sam.Record, len(bodies))
		for i, body := range bodies {
			if err := bam.DecodeRecord(body, &recs[i], h); err != nil {
				t.Fatal(err)
			}
		}
		var file, index bytes.Buffer
		idx, err := bamx.BuildFromRecords(&file, h, recs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.WriteTo(&index); err != nil {
			t.Fatal(err)
		}
		return file.Bytes(), index.Bytes()
	},
	".pamx": func(t *testing.T, h *sam.Header, bodies [][]byte) ([]byte, []byte) {
		var buf bytes.Buffer
		w, err := pamx.NewWriter(&buf, h, pamx.Options{CodecWorkers: 1, GroupBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range bodies {
			if err := w.WriteBody(body); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), nil
	},
}

// readFiles maps every file in dir to its bytes.
func readFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// TestSinkContract is the table every container Create writes must
// pass, at codec workers {0, 1, 4}: its bytes are its own writer's (and,
// through Rewrite, the same from every container a provider reads); a source
// error or a corrupt body mid-stream comes back typed and leaves
// neither the file nor a temporary one, nor touches a file already at
// the destination; and no goroutine outlives the sink.
func TestSinkContract(t *testing.T) {
	bamPath, bamxPath, d := writeDataset(t, 1500)
	pamxPath := filepath.Join(filepath.Dir(bamPath), "data.pamx")
	if _, err := Rewrite(bamPath, pamxPath); err != nil {
		t.Fatal(err)
	}
	bamzPath := filepath.Join(filepath.Dir(bamPath), "data.bamz")
	if _, err := bamx.CompressFile(bamxPath, bamzPath, 64, 1); err != nil {
		t.Fatal(err)
	}
	barePath, _ := writeBareBAMs(t, bamPath, d, nil) // a BAM with no .bai beside it
	h := d.Header
	bodies := make([][]byte, len(d.Records))
	for i := range d.Records {
		rec, err := bam.EncodeRecord(nil, &d.Records[i], h)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = rec[4:]
	}
	errSource := errors.New("source read failure")
	corrupt := map[string]error{".bam": bam.ErrInvalidRecord, ".bamx": bamx.ErrCorrupt, ".pamx": pamx.ErrCorrupt}
	// write drives a sink over bodies, failing at record `at` with the
	// source error or a 10-byte body when fail is set.
	write := func(path string, workers int, fail error, at int) error {
		out, err := Create(path, h, WithCodecWorkers(workers), WithGroupCaps(32<<10, 0))
		if err != nil {
			return err
		}
		defer out.Abort()
		for i, body := range bodies {
			if i == at {
				if fail == errSource {
					return fail
				}
				body = body[:10]
			}
			if err := out.WriteBody(body); err != nil {
				return err
			}
		}
		return out.Close()
	}

	base := runtime.NumGoroutine()
	for _, ext := range []string{".bam", ".bamx", ".pamx"} {
		wantFile, wantIndex := sinkRefs[ext](t, h, bodies)
		want := map[string]string{"out" + ext: string(wantFile)}
		if wantIndex != nil {
			want["out.baix"] = string(wantIndex)
		}
		for _, workers := range []int{0, 1, 4} {
			dir := t.TempDir()
			if err := write(filepath.Join(dir, "out"+ext), workers, nil, -1); err != nil {
				t.Fatalf("%s workers %d: %v", ext, workers, err)
			}
			if got := readFiles(t, dir); !equalFiles(got, want) {
				t.Errorf("%s workers %d: wrote %v, not the container writer's bytes", ext, workers, names(got))
			}
			for _, src := range []string{bamPath, barePath, bamxPath, bamzPath, pamxPath} {
				dir := t.TempDir()
				n, err := Rewrite(src, filepath.Join(dir, "out"+ext), WithCodecWorkers(workers), WithGroupCaps(32<<10, 0))
				if err != nil || n != int64(len(bodies)) {
					t.Fatalf("Rewrite %s → %s workers %d = %d, %v", filepath.Ext(src), ext, workers, n, err)
				}
				if got := readFiles(t, dir); !equalFiles(got, want) {
					t.Errorf("Rewrite %s → %s workers %d: wrote %v, not the container writer's bytes", filepath.Ext(src), ext, workers, names(got))
				}
			}

			for _, fail := range []error{errSource, corrupt[ext]} {
				for _, existing := range []bool{false, true} {
					dir := t.TempDir()
					before := map[string]string{}
					if existing {
						for name := range want {
							before[name] = "an earlier run's " + name
							if err := os.WriteFile(filepath.Join(dir, name), []byte(before[name]), 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}
					err := write(filepath.Join(dir, "out"+ext), workers, fail, len(bodies)*2/3)
					if !errors.Is(err, fail) {
						t.Errorf("%s workers %d: failed write = %v, want %v", ext, workers, err, fail)
					}
					if got := readFiles(t, dir); !equalFiles(got, before) {
						t.Errorf("%s workers %d, %v, existing %v: left %v", ext, workers, fail, existing, names(got))
					}
				}
			}
		}
	}
	if !leakcheck.Settle(base) {
		t.Fatalf("%d goroutines after the sinks, %d before", runtime.NumGoroutine(), base)
	}
}

func equalFiles(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if want, ok := b[name]; !ok || want != data {
			return false
		}
	}
	return true
}

func names(files map[string]string) string {
	var ns []string
	for name := range files {
		ns = append(ns, name)
	}
	return strings.Join(ns, ", ")
}

// TestSinkCommitsByRename: nothing appears under the final name until
// Close, an ended sink refuses more records, and Abort after Close is a
// no-op.
func TestSinkCommitsByRename(t *testing.T) {
	_, _, d := writeDataset(t, 50)
	body, err := bam.EncodeRecord(nil, &d.Records[0], d.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".bam", ".bamx", ".pamx"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "out"+ext)
		out, err := Create(path, d.Header)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.WriteBody(body[4:]); err != nil {
			t.Fatal(err)
		}
		for _, name := range Outputs(path) {
			if _, err := os.Stat(name); !os.IsNotExist(err) {
				t.Errorf("%s: %s exists before Close (stat: %v)", ext, filepath.Base(name), err)
			}
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		out.Abort()
		if err := out.WriteBody(body[4:]); err == nil {
			t.Errorf("%s: WriteBody after Close succeeded", ext)
		}
		got := readFiles(t, dir)
		if len(got) != len(Outputs(path)) {
			t.Errorf("%s: committed %s, want %v", ext, names(got), Outputs(path))
		}
		for _, name := range Outputs(path) {
			if _, ok := got[filepath.Base(name)]; !ok {
				t.Errorf("%s: %s not committed", ext, filepath.Base(name))
			}
		}
	}
	if _, err := Create(filepath.Join(t.TempDir(), "out.bamz"), d.Header); err == nil {
		t.Error("Create wrote a .bamz, which has no sink")
	}
}
