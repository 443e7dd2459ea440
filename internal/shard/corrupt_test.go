package shard_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/obs"
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

// writeIndexedBAM writes d as path with its .bai sidecar.
func writeIndexedBAM(t *testing.T, path string, d *simdata.Dataset) {
	t.Helper()
	var raw, bai bytes.Buffer
	if err := d.WriteBAM(&raw); err != nil {
		t.Fatal(err)
	}
	if err := bam.WriteIndexFile(bytes.NewReader(raw.Bytes()), &bai); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".bai", bai.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// shiftLinear moves every linear-index entry of a BAI that equals from
// to to, leaving the binned chunks as they are.
func shiftLinear(t *testing.T, bai []byte, from, to bgzf.VOffset) {
	t.Helper()
	u32 := func(at int) int { return int(binary.LittleEndian.Uint32(bai[at:])) }
	at, shifted := 8, 0
	for range u32(4) {
		nBin := u32(at)
		at += 4
		for range nBin {
			at += 8 + 16*u32(at+4)
		}
		nIntv := u32(at)
		at += 4
		for range nIntv {
			if bgzf.VOffset(binary.LittleEndian.Uint64(bai[at:])) == from {
				binary.LittleEndian.PutUint64(bai[at:], uint64(to))
				shifted++
			}
			at += 8
		}
	}
	if shifted == 0 {
		t.Fatalf("no linear entry at %v", from)
	}
}

// TestStaleBAIRows reads a BAM through a .bai that does not describe it:
// another BAM's, and its own with the linear entries at one piece's cut
// moved a byte into the record there. Whole-file at one target shard
// (which never opens the .bai), at 16, and over a region, each read
// either tallies every selected record exactly once or fails with a
// BGZF corruption error that names a virtual offset — never a short or
// doubled tally. A cut off the record grid must fail.
func TestStaleBAIRows(t *testing.T) {
	dir := t.TempDir()
	d := simdata.Generate(simdata.DefaultConfig(6000))
	path := filepath.Join(dir, "data.bam")
	writeIndexedBAM(t, path, d)
	otherCfg := simdata.DefaultConfig(9000)
	otherCfg.Seed = 2
	other := filepath.Join(dir, "other.bam")
	writeIndexedBAM(t, other, simdata.Generate(otherCfg))

	ref := d.Header.RefByID(0)
	region := &shard.Region{Ref: ref.Name, Beg: ref.Length / 4, End: ref.Length}
	inRegion := 0
	for i := range d.Records {
		if r := &d.Records[i]; r.RName == ref.Name && int(r.Pos)-1 >= region.Beg {
			inRegion++
		}
	}
	selections := []struct {
		name string
		opts shard.Options
		want int
	}{
		{"whole at 1", shard.Options{TargetShards: 1}, len(d.Records)},
		{"whole at 16", shard.Options{TargetShards: 16}, len(d.Records)},
		{"region", shard.Options{TargetShards: 16, Region: region}, inRegion},
	}
	// tally drains a selection's shards through ForEach and counts them.
	tally := func(opts shard.Options) (int, []shard.Shard, error) {
		p := shard.NewBAMProvider(path)
		defer p.Close()
		shards, err := p.GenerateShards(opts)
		if err != nil {
			return 0, nil, err
		}
		counts := make([]int, len(shards))
		err = shard.ForEach(p, shards, 3, func(i int, _ shard.Shard, rr shard.RecordReader) error {
			for {
				if _, err := rr.NextBody(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				counts[i]++
			}
		})
		n := 0
		for _, c := range counts {
			n += c
		}
		return n, shards, err
	}

	// The clean index: exact tallies, every piece ending at its RecHi.
	var pieces []shard.Shard
	for _, sel := range selections {
		n, shards, err := tally(sel.opts)
		if err != nil || n != sel.want {
			t.Fatalf("clean %s: %d records, %v; want %d", sel.name, n, err, sel.want)
		}
		if sel.name == "whole at 16" {
			pieces = shards
		}
	}
	if len(pieces) < 3 {
		t.Fatalf("%d pieces at 16 target shards, want several", len(pieces))
	}

	clean, err := os.ReadFile(path + ".bai")
	if err != nil {
		t.Fatal(err)
	}
	otherBAI, err := os.ReadFile(other + ".bai")
	if err != nil {
		t.Fatal(err)
	}
	cut := bgzf.VOffset(pieces[1].RecLo)
	shifted := bytes.Clone(clean)
	shiftLinear(t, shifted, cut, cut+1)
	offset := regexp.MustCompile(`\b[0-9]+:[0-9]+\b`)
	for _, row := range []struct {
		name    string
		bai     []byte
		mustErr map[string]bool // selections that read the bad entries
	}{
		{"another BAM's .bai", otherBAI, map[string]bool{"whole at 16": true, "region": true}},
		{"a cut moved into a record", shifted, map[string]bool{"whole at 16": true}},
	} {
		if err := os.WriteFile(path+".bai", row.bai, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sel := range selections {
			n, _, err := tally(sel.opts)
			switch {
			case err == nil && row.mustErr[sel.name]:
				t.Errorf("%s, %s: %d records and no error", row.name, sel.name, n)
			case err == nil && n != sel.want:
				t.Errorf("%s, %s: %d records, want %d", row.name, sel.name, n, sel.want)
			case err != nil && !offset.MatchString(err.Error()):
				t.Errorf("%s, %s: %v names no offset", row.name, sel.name, err)
			case err != nil:
				checkCorrupt(t, row.name+" "+sel.name, shard.Config{}, err)
			}
		}
	}
}

// TestHugeBlockSize plants a block_size of 0x7fffffff in one chr1 record
// of an otherwise sound BAM, with a .bai built from where the records
// really lie, and drains the piece, the index shard and the bare stream
// (no .bai) holding it. Each must fail with a typed corruption error,
// never panic, and the piece and the index shard must stop at their
// ends instead of carrying the record through the members after them.
func TestHugeBlockSize(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(6000))
	var raw bytes.Buffer
	bw, err := bam.NewWriter(&raw, d.Header)
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Header.RefByID(0)
	idx := bam.NewIndex(len(d.Header.Refs))
	var huge bgzf.VOffset // the damaged record's start
	var hugePos int       // and its zero-based position on chr1
	var body []byte
	onRef := 0
	for i := range d.Records {
		if d.Records[i].RName == ref.Name {
			onRef++
		}
	}
	for i := range d.Records {
		rec := &d.Records[i]
		if body, err = bam.EncodeRecord(body[:0], rec, d.Header); err != nil {
			t.Fatal(err)
		}
		refID, beg, end := bam.BodySpan(body[4:])
		at := bw.Offset()
		if i == onRef/2 { // the middle chr1 record: chr1's come first
			binary.LittleEndian.PutUint32(body, 0x7fffffff)
			huge, hugePos = at, beg
		}
		if err := bw.WriteEncoded(body); err != nil {
			t.Fatal(err)
		}
		if err := idx.Add(int(refID), beg, end, at, bw.Offset()); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "huge.bam")
	var bai bytes.Buffer
	if _, err := idx.WriteTo(&bai); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".bai", bai.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	members := membersAt(t, raw.Bytes(), 0, raw.Len())
	// within sums the ISIZE of the members holding bytes of [lo, hi).
	within := func(lo, hi bgzf.VOffset) (n int64) {
		for _, m := range members {
			if at := int64(m[0]); at >= lo.Block() && (at < hi.Block() || at == hi.Block() && hi.Intra() > 0) {
				n += int64(binary.LittleEndian.Uint32(raw.Bytes()[m[1]-4:]))
			}
		}
		return n
	}

	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	inflated := reg.Counter("bgzf.inflate.bytes_out")
	// drain reads the shard of a selection that holds the damaged record,
	// alone, and checks its error and, unless it runs to the end of the
	// file, the bytes it inflated.
	drain := func(name string, opts shard.Options) {
		t.Helper()
		p := shard.NewBAMProvider(path)
		defer p.Close()
		shards, err := p.GenerateShards(opts)
		if err != nil {
			t.Fatal(err)
		}
		var sh shard.Shard
		for _, s := range shards {
			piece := s.RecHi != 0 && bgzf.VOffset(s.RecLo) <= huge && huge < bgzf.VOffset(s.RecHi)
			if piece || s.RecHi == 0 && s.RefID == 0 && s.Beg <= hugePos && hugePos < s.End {
				sh = s
			}
		}
		before := inflated.Value()
		rr, err := p.NewReader(sh)
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		for err == nil {
			_, err = rr.NextBody()
		}
		got := inflated.Value() - before
		t.Logf("%s %v: %v after %d bytes inflated", name, sh, err, got)
		checkCorrupt(t, name, shard.Config{}, err)
		lo, hi := bgzf.VOffset(sh.RecLo), bgzf.VOffset(sh.RecHi)
		if hi == 0 { // an index shard: the span of its chunks
			cs := idx.Query(0, sh.Beg, sh.End)
			lo, hi = cs[0].Beg, cs[len(cs)-1].End
		}
		if bound := within(lo, hi); hi != math.MaxInt64 && got > bound {
			t.Errorf("%s: inflated %d bytes, more than the %d of the members under it", name, got, bound)
		}
	}
	drain("piece", shard.Options{TargetShards: 16})
	drain("index shard", shard.Options{Refs: []string{ref.Name}, TargetShards: 16})
	if err := os.Remove(path + ".bai"); err != nil {
		t.Fatal(err)
	}
	drain("bare stream", shard.Options{TargetShards: 1})
}
