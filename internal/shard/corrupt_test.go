package shard_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// bgzfStream is one BGZF stream inside a file: where its members start
// and end, and how to make the file hold fewer of its bytes.
type bgzfStream struct {
	members [][2]int // [start, end) file offsets, the EOF marker last
	target  int      // the member most rows damage: the first holding records
	// cut returns the file with the stream ending after n of its bytes.
	cut func(file []byte, n int) []byte
}

// membersAt walks the members of the stream at file[off:end] by their BC
// subfields.
func membersAt(t *testing.T, file []byte, off, end int) [][2]int {
	t.Helper()
	var ms [][2]int
	for p := off; p < end; {
		if !bytes.Equal(file[p+12:p+16], []byte{'B', 'C', 2, 0}) {
			t.Fatalf("no BC subfield at %d", p)
		}
		next := p + int(binary.LittleEndian.Uint16(file[p+16:])) + 1
		ms = append(ms, [2]int{p, next})
		p = next
	}
	return ms
}

// setBits writes the n low bits of v at bit offset at of b, LSB first.
func setBits(b []byte, at, n int, v uint) {
	for i := 0; i < n; i, at = i+1, at+1 {
		b[at/8] = b[at/8]&^(1<<(at%8)) | byte(v>>i&1)<<(at%8)
	}
}

// TestBGZFCorruptionTable damages one BGZF member per row — of a .bam,
// and of the coordinate column every .pamx analysis inflates — and runs
// flagstat and the coverage histogram over shard.OpenPathProvider at one
// rank and at the default configuration. Every run must fail with a typed
// corruption error: never succeed, panic or hang.
func TestBGZFCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	d := simdata.Generate(simdata.DefaultConfig(3000))
	bamPath := filepath.Join(dir, "clean.bam")
	f, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pamxPath := filepath.Join(dir, "clean.pamx")
	if _, err := shard.Rewrite(bamPath, pamxPath); err != nil {
		t.Fatal(err)
	}

	bamFile, err := os.ReadFile(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	bamStream := bgzfStream{
		members: membersAt(t, bamFile, 0, len(bamFile)),
		target:  1, // member 0 is the BAM header
		cut:     func(file []byte, n int) []byte { return file[:n] },
	}

	pamxFile, err := os.ReadFile(pamxPath)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pamx.OpenPath(pamxPath)
	if err != nil {
		t.Fatal(err)
	}
	coord := pf.Group(0).Cols[0]
	pf.Close()
	// The footer entry of the column: its offset, then CLen and ULen.
	var entry []byte
	for _, v := range []int64{coord.Off, coord.CLen, coord.ULen} {
		entry = binary.LittleEndian.AppendUint64(entry, uint64(v))
	}
	clenAt := bytes.LastIndex(pamxFile, entry) + 8
	if clenAt < 8 {
		t.Fatal("coordinate column entry not found in the PAMX footer")
	}
	pamxStream := bgzfStream{
		members: membersAt(t, pamxFile, int(coord.Off), int(coord.Off+coord.CLen)),
		cut: func(file []byte, n int) []byte {
			binary.LittleEndian.PutUint64(file[clenAt:], uint64(n-int(coord.Off)))
			return file
		},
	}

	rows := []struct {
		name   string
		damage func(t *testing.T, file []byte, s bgzfStream) []byte
	}{
		{"truncated mid-member", func(t *testing.T, file []byte, s bgzfStream) []byte {
			m := s.members[s.target]
			return s.cut(file, (m[0]+m[1])/2)
		}},
		{"missing EOF marker", func(t *testing.T, file []byte, s bgzfStream) []byte {
			return s.cut(file, s.members[len(s.members)-1][0])
		}},
		{"CRC flip", func(t *testing.T, file []byte, s bgzfStream) []byte {
			file[s.members[s.target][1]-8] ^= 1
			return file
		}},
		{"ISIZE one high", func(t *testing.T, file []byte, s bgzfStream) []byte {
			at := s.members[s.target][1] - 4
			binary.LittleEndian.PutUint32(file[at:], binary.LittleEndian.Uint32(file[at:])+1)
			return file
		}},
		{"ISIZE one low", func(t *testing.T, file []byte, s bgzfStream) []byte {
			at := s.members[s.target][1] - 4
			binary.LittleEndian.PutUint32(file[at:], binary.LittleEndian.Uint32(file[at:])-1)
			return file
		}},
		{"BSIZE past end of file", func(t *testing.T, file []byte, s bgzfStream) []byte {
			m := s.members[len(s.members)-2]
			end := s.members[len(s.members)-1][1]
			if m[0]+0x10000 <= end {
				t.Fatalf("the last data member at %d cannot point past the stream's end at %d", m[0], end)
			}
			binary.LittleEndian.PutUint16(file[m[0]+16:], 0xffff)
			return file
		}},
		{"no final block", func(t *testing.T, file []byte, s bgzfStream) []byte {
			at := s.members[s.target][0] + 18
			if file[at]&1 == 0 {
				t.Fatal("the member's first block is not its final block")
			}
			file[at] &^= 1
			return file
		}},
		{"corrupt dynamic Huffman header", func(t *testing.T, file []byte, s bgzfStream) []byte {
			deflate := file[s.members[s.target][0]+18:]
			if deflate[0]>>1&3 != 2 {
				t.Fatal("the member's first block is not dynamic")
			}
			// Code-length codes 16, 17 and 18 all one bit long: over-subscribed.
			for i := 0; i < 3; i++ {
				setBits(deflate, 17+3*i, 3, 1)
			}
			return file
		}},
	}

	inputs := []struct {
		ext    string
		file   []byte
		stream bgzfStream
	}{
		{".bam", bamFile, bamStream},
		{".pamx", pamxFile, pamxStream},
	}
	rname := d.Header.RefByID(0).Name
	for _, in := range inputs {
		if len(in.stream.members) < in.stream.target+2 {
			t.Fatalf("%s: %d members, want several", in.ext, len(in.stream.members))
		}
		for _, row := range rows {
			t.Run(in.ext+"/"+row.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "damaged"+in.ext)
				if err := os.WriteFile(path, row.damage(t, bytes.Clone(in.file), in.stream), 0o644); err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []shard.Config{{Ranks: 1}, {}} {
					p := shard.OpenPathProvider(path)
					_, err := flagstat.Sharded(p, cfg)
					checkCorrupt(t, "flagstat", cfg, err)
					p.Close()
					p = shard.OpenPathProvider(path)
					_, err = hist.FromProvider(p, rname, 1000, cfg)
					checkCorrupt(t, "hist", cfg, err)
					p.Close()
				}
			})
		}
	}
}

// checkCorrupt fails t unless err is a typed BGZF corruption error.
func checkCorrupt(t *testing.T, op string, cfg shard.Config, err error) {
	t.Helper()
	for _, want := range []error{bgzf.ErrCorrupt, bgzf.ErrNoEOFMarker, bgzf.ErrNotBGZF} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Errorf("%s at %d ranks: %v, want a BGZF corruption error", op, cfg.Ranks, err)
}
