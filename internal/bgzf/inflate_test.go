package bgzf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// body wraps a raw DEFLATE stream in the footer of want, a member body as
// blockScanner.scan hands it to unwrapBlock, with ISIZE moved by lie.
func body(stream, want []byte, lie int) []byte {
	raw := binary.LittleEndian.AppendUint32(bytes.Clone(stream), crc32.ChecksumIEEE(want))
	return binary.LittleEndian.AppendUint32(raw, uint32(len(want)+lie))
}

// checkAgainstFlate is the differential check: the member made of stream
// and a footer describing what compress/flate inflates it to (ISIZE moved
// by lie) must inflate to the same bytes when compress/flate reads it as
// a good member — no error, exactly ISIZE bytes, ISIZE within the format's
// limit — and must fail with ErrCorrupt otherwise. It reports whether the
// member is good.
func checkAgainstFlate(t *testing.T, stream []byte, lie int) bool {
	t.Helper()
	want, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(stream)), 2*MaxBlockSize))
	good := err == nil && lie == 0 && len(want) <= MaxBlockSize
	got, gotErr := unwrapBlock(nil, body(stream, want, lie))
	switch {
	case good && gotErr != nil:
		t.Fatalf("compress/flate inflates %d bytes, unwrapBlock fails: %v", len(want), gotErr)
	case good && !bytes.Equal(got, want):
		t.Fatalf("unwrapBlock inflates %d bytes that differ from compress/flate's %d", len(got), len(want))
	case !good && gotErr == nil:
		t.Fatalf("compress/flate refuses the member (%v, lie %d), unwrapBlock inflates %d bytes", err, lie, len(got))
	case !good && !errors.Is(gotErr, ErrCorrupt):
		t.Fatalf("unwrapBlock fails with %v, not ErrCorrupt", gotErr)
	}
	return good
}

// streamBuilder builds DEFLATE streams by hand, bit by bit, LSB first.
type streamBuilder struct {
	buf []byte
	n   uint // bits used in the last byte
}

func (w *streamBuilder) bits(v uint32, n uint) *streamBuilder {
	for ; n > 0; n-- {
		if w.n%8 == 0 {
			w.buf, w.n = append(w.buf, 0), 0
		}
		w.buf[len(w.buf)-1] |= byte(v&1) << w.n
		v >>= 1
		w.n++
	}
	return w
}

// sym writes symbol s of code h.
func (w *streamBuilder) sym(h *huffCode, s int) *streamBuilder {
	return w.bits(uint32(h.code[s]), uint(h.len[s]))
}

// codeOf returns the canonical code with these lengths.
func codeOf(lens []uint8) *huffCode {
	h := new(huffCode)
	copy(h.len[:], lens)
	h.assign(len(lens))
	return h
}

// dynamicStart writes a final dynamic block's header up to its code
// lengths: nlit and ndist, then a complete code-length code over 0–16
// (15 and 16 take five bits, the rest four), which it returns.
func (w *streamBuilder) dynamicStart(nlit, ndist int) *huffCode {
	w.bits(1, 1).bits(kindDynamic, 2)
	w.bits(uint32(nlit-257), 5).bits(uint32(ndist-1), 5).bits(numCL-4, 4)
	var clLens [numCL]uint8
	for s := range clLens[:17] {
		clLens[s] = 4
	}
	clLens[15], clLens[16] = 5, 5
	for _, s := range clOrder {
		w.bits(uint32(clLens[s]), 3)
	}
	return codeOf(clLens[:])
}

// dynamicHeader writes a final dynamic block's header declaring lit and
// dist as its code lengths, one code-length symbol each, and returns the
// two codes.
func (w *streamBuilder) dynamicHeader(lit, dist []uint8) (*huffCode, *huffCode) {
	cl := w.dynamicStart(len(lit), len(dist))
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.sym(cl, int(l))
	}
	return codeOf(lit), codeOf(dist)
}

// lens returns n code lengths, the first ones given and the rest zero.
func lens(n int, first ...uint8) []uint8 {
	return append(first, make([]uint8, n-len(first))...)
}

// litLens is a complete literal/length code: 'a', 'b', end of block and
// length symbol 257 (3 bytes) at two bits each.
func litLens() []uint8 {
	l := lens(258)
	l['a'], l['b'], l[endBlock], l[257] = 2, 2, 2, 2
	return l
}

// flateStream compresses p with compress/flate at level.
func flateStream(t testing.TB, p []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wrapStream is the DEFLATE stream of the member wrap makes of p.
func wrapStream(p []byte) []byte {
	var d deflator
	member := d.wrap(nil, p)
	return member[headerSize : len(member)-footerSize]
}

// TestInflateMatchesFlate is the differential table: hand-built streams
// for each rule the decoder shares with compress/flate, and the members
// the in-tree encoder and compress/flate make.
func TestInflateMatchesFlate(t *testing.T) {
	type row = inflateRow
	rows := edgeRows()
	add := func(name string, good bool, stream []byte) { rows = append(rows, row{name, stream, 0, good}) }

	rng := rand.New(rand.NewSource(36))
	text := make([]byte, 40000)
	for i := range text {
		text[i] = "ACGT"[rng.Intn(4)]
	}
	for _, c := range deflateCases() {
		add("wrap "+c.Name, true, wrapStream(c.Payload))
	}
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
		add(fmt.Sprintf("flate level %d", level), true, flateStream(t, text, level))
	}

	// Stored, dynamic and fixed blocks in one member: compress/flate's
	// NoCompression, HuffmanOnly and level 1 outputs, flushed but not
	// closed so none is final, then a final fixed block.
	{
		var mix []byte
		for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, flate.BestSpeed} {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, level)
			fw.Write(text[:3000])
			fw.Flush() // ends byte-aligned, on an empty non-final stored block
			mix = append(mix, buf.Bytes()...)
		}
		w := new(streamBuilder)
		w.bits(1, 1).bits(kindFixed, 2).sym(&fixedLit, 'x').sym(&fixedLit, endBlock)
		add("stored, dynamic and fixed blocks", true, append(mix, w.buf...))
	}

	// A 32-byte match at distance exactly 32768.
	{
		p := bytes.Clone(text[:32768+32])
		rng.Read(p[:32768])
		copy(p[32768:], p[:32])
		s := wrapStream(p)
		var d deflator
		d.wrap(nil, p)
		found := false
		for _, tok := range d.tokens {
			found = found || tok&0xffff == windowSize
		}
		if !found {
			t.Fatal("no match at distance 32768 in the distance row")
		}
		add("distance 32768", true, s)
	}

	// A single one-bit distance code: "a" then a 3-byte match at distance 1.
	{
		w := new(streamBuilder)
		lit, _ := w.dynamicHeader(litLens(), lens(1, 1))
		w.sym(lit, 'a').sym(lit, 257).bits(0, 1).sym(lit, endBlock)
		add("single one-bit distance code", true, w.buf)
		w = new(streamBuilder)
		lit, _ = w.dynamicHeader(litLens(), lens(1, 1))
		w.sym(lit, 'a').sym(lit, 257).bits(1, 1).sym(lit, endBlock)
		add("unused codeword of a one-bit distance code", false, w.buf)
	}
	{
		w := new(streamBuilder)
		lit, _ := w.dynamicHeader(litLens(), lens(1))
		w.sym(lit, 'a').sym(lit, 'b').sym(lit, endBlock)
		add("literals only, empty distance code", true, w.buf)
		w = new(streamBuilder)
		lit, _ = w.dynamicHeader(litLens(), lens(1))
		w.sym(lit, 'a').sym(lit, 257).bits(0, 1).sym(lit, endBlock)
		add("match with an empty distance code", false, w.buf)
	}
	{
		over := litLens()
		over['c'] = 2
		w := new(streamBuilder)
		w.dynamicHeader(over, lens(1, 1))
		add("over-subscribed literal/length code", false, w.bits(0, 16).buf)
		under := litLens()
		under[257] = 3
		w = new(streamBuilder)
		w.dynamicHeader(under, lens(1, 1))
		add("incomplete literal/length code", false, w.bits(0, 16).buf)
	}
	{
		w := new(streamBuilder)
		w.bits(1, 1).bits(kindDynamic, 2).bits(30, 5).bits(0, 5).bits(0, 4)
		add("HLIT 287", false, w.bits(0, 32).buf)
		w = new(streamBuilder)
		w.bits(1, 1).bits(kindDynamic, 2).bits(0, 5).bits(30, 5).bits(0, 4)
		add("HDIST 31", false, w.bits(0, 32).buf)
	}
	{
		w := new(streamBuilder)
		w.sym(w.dynamicStart(258, 1), 16).bits(0, 2)
		add("repeat code 16 first", false, w.bits(0, 64).buf)
	}
	{
		// Fixed block, length symbol 286 and distance symbols 30/31.
		w := new(streamBuilder)
		w.bits(1, 1).bits(kindFixed, 2).sym(&fixedLit, 'x').sym(&fixedLit, 286).sym(&fixedLit, endBlock)
		add("fixed literal/length symbol 286", false, w.buf)
		for _, d := range []uint8{30, 31} {
			w = new(streamBuilder)
			w.bits(1, 1).bits(kindFixed, 2).sym(&fixedLit, 'x').sym(&fixedLit, 257)
			w.bits(uint32(bits.Reverse8(d<<3)), 5).sym(&fixedLit, endBlock)
			add(fmt.Sprintf("fixed distance symbol %d", d), false, w.buf)
		}
	}
	{
		// A stored block whose NLEN is not LEN's complement, and BTYPE 3.
		w := new(streamBuilder)
		w.bits(1, 1).bits(kindStored, 2).bits(0, 5).bits(3, 16).bits(3, 16)
		add("stored NLEN mismatch", false, append(w.buf, "abc"...))
		w = new(streamBuilder)
		add("BTYPE 3", false, w.bits(1, 1).bits(3, 2).bits(0, 13).buf)
	}
	{
		// No final block: the payload in one non-final stored block.
		w := new(streamBuilder)
		w.bits(0, 1).bits(kindStored, 2).bits(0, 5).bits(3, 16).bits(^uint32(3), 16)
		add("no final block", false, append(w.buf, "abc"...))
	}
	good := flateStream(t, text[:5000], flate.DefaultCompression)
	rows = append(rows,
		row{"ISIZE one high", good, 1, false},
		row{"ISIZE one low", good, -1, false},
		row{"ISIZE 65537", flateStream(t, make([]byte, MaxBlockSize+1), flate.DefaultCompression), 0, false},
		row{"trailing garbage", append(bytes.Clone(good), "garbage"...), 0, true},
		row{"truncated by one byte", good[:len(good)-1], 0, false},
		row{"empty stream", nil, 0, false},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if good := checkAgainstFlate(t, r.stream, r.lie); good != r.good {
				t.Fatalf("compress/flate calls the member good: %v, want %v", good, r.good)
			}
		})
	}
}

// inflateRow is one member of the differential table: a DEFLATE stream,
// how far its ISIZE lies, and whether compress/flate must call the member
// good, so the row tests its rule.
type inflateRow struct {
	name   string
	stream []byte
	lie    int
	good   bool
}

// match writes a length/distance pair with codes lit and dist.
func (w *streamBuilder) match(lit, dist *huffCode, length, d int) *streamBuilder {
	c := int(lenCode[length-3])
	w.sym(lit, 257+c).bits(uint32(length-int(lenBase[c])), uint(lenExtra[c]))
	ds := int(distSym(d))
	return w.sym(dist, ds).bits(uint32(d-int(distBase[ds])), uint(distExtra[ds]))
}

// fixedBlock writes a fixed block of n bytes with period p: p literals,
// then matches at distance p, and literals where fewer than three bytes
// are left.
func (w *streamBuilder) fixedBlock(final uint32, n, p int) *streamBuilder {
	w.bits(final, 1).bits(kindFixed, 2)
	for i := 0; i < n; {
		switch rest := n - i; {
		case i < p || rest < 3:
			w.sym(&fixedLit, int("ACGTTGCATTAGGCCATAGC"[i%p]))
			i++
		default:
			l := min(rest, maxMatch)
			if rest-l > 0 && rest-l < 3 {
				l -= 3
			}
			w.match(&fixedLit, &fixedDist, l, p)
			i += l
		}
	}
	return w.sym(&fixedLit, endBlock)
}

// edgeRows are the decoder's edges: members that end on a pair of
// literals with one byte of room, lone one-bit codes whose unused
// codeword must stay refused, end-of-block and length codes that fit
// beside a literal in one table index, and blocks that end inside the
// fast loop's output margin (fastOut bytes). The dynamic blocks meant
// to pair have pairRoom bytes of output or more.
func edgeRows() []inflateRow {
	var rows []inflateRow
	add := func(name string, good bool, stream []byte) { rows = append(rows, inflateRow{name, stream, 0, good}) }

	// 'a', 'b', end of block and length 3 at two bits each: in a block
	// with pairRoom bytes of output left, any two of the literals share
	// a table entry.
	for _, pairs := range []int{1, pairRoom/2 + 8} {
		w := new(streamBuilder)
		lit, _ := w.dynamicHeader(litLens(), lens(1, 1))
		for range pairs {
			w.sym(lit, 'a').sym(lit, 'b')
		}
		w.sym(lit, endBlock)
		name := fmt.Sprintf("%d bytes ending on a pair", 2*pairs)
		rows = append(rows, inflateRow{name, w.buf, 0, true}, inflateRow{name + ", ISIZE one low", w.buf, -1, false})
	}
	{
		w := new(streamBuilder)
		lit, _ := w.dynamicHeader(litLens(), lens(1, 1))
		for range pairRoom / 2 {
			w.sym(lit, 'b').sym(lit, 'a')
		}
		add("end of block beside a literal", true, w.sym(lit, 'a').sym(lit, endBlock).buf)
		w = new(streamBuilder)
		lit, dist := w.dynamicHeader(litLens(), lens(1, 1))
		for range pairRoom / 2 {
			w.sym(lit, 'b').sym(lit, 'a')
		}
		w.sym(lit, 'a').match(lit, dist, 3, 1).sym(lit, 'b').sym(lit, endBlock)
		add("length beside a literal", true, w.buf)
	}

	// A literal/length code of one one-bit code: end of block after a
	// fixed block, or 'a', whose block can only end on the unused
	// codeword.
	for _, c := range []struct {
		sym  int
		runs int // codeword 0s before the last bit
		last uint32
		good bool
	}{{endBlock, 0, 0, true}, {endBlock, 0, 1, false}, {'a', pairRoom + 8, 1, false}} {
		w := new(streamBuilder)
		w.fixedBlock(0, 20, 4)
		l := lens(257)
		l[c.sym] = 1
		w.dynamicHeader(l, lens(1))
		for range c.runs {
			w.bits(0, 1)
		}
		add(fmt.Sprintf("one-bit code for symbol %d, %d zeros then %d", c.sym, c.runs, c.last), c.good, w.bits(c.last, 1).buf)
	}

	for _, n := range []int{1, 2, fastOut - 1, fastOut, fastOut + 1, fastOut + 8, 2*fastOut - 2} {
		for _, p := range []int{1, 3, 8, 20} {
			add(fmt.Sprintf("fixed block of %d bytes, period %d", n, p), true, new(streamBuilder).fixedBlock(1, n, p).buf)
		}
	}
	rng := rand.New(rand.NewSource(56))
	text := make([]byte, 10000)
	for i := range text {
		text[i] = "ACGT"[rng.Intn(4)]
	}
	for _, n := range []int{1, fastOut - 1, fastOut, fastOut + 1} {
		var mix []byte
		for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, flate.BestSpeed} {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, level)
			fw.Write(text[:9000+n])
			fw.Flush()
			mix = append(mix, buf.Bytes()...)
		}
		add(fmt.Sprintf("stored, dynamic and fixed blocks, last %d bytes fixed", n), true,
			append(mix, new(streamBuilder).fixedBlock(1, n, 8).buf...))
	}
	return rows
}

// TestPairLiterals: in a table of two-bit codes for 'a', 'b', end of
// block and length 3, every literal entry pairs with the literal its
// index holds next, and every other entry stays as buildTable left it.
func TestPairLiterals(t *testing.T) {
	var tab [litTableSize]uint32
	if !buildTable(tab[:], litTableBits, litLens(), litLeaf[:]) {
		t.Fatal("buildTable refused the code")
	}
	built := tab
	pairLiterals(tab[:1<<litTableBits])
	pairs := 0
	for j, e := range tab[:1<<litTableBits] {
		want, next := built[j], built[j>>2]
		if want&entLit != 0 && next&entLit != 0 {
			want += 2 + 1<<12 | next>>16<<24
			pairs++
		}
		if e != want {
			t.Fatalf("entry %d is %#x, want %#x", j, e, want)
		}
	}
	if pairs != 1<<litTableBits/4 {
		t.Fatalf("%d pairs, want %d", pairs, 1<<litTableBits/4)
	}
}

// TestMemberWithoutFinalBlock pins the one rule stricter than
// compress/flate's reader: a member whose DEFLATE stream is one non-final
// stored block holding the payload, with the right CRC and ISIZE, is
// corrupt, as it is to zlib inflating with Z_FINISH.
func TestMemberWithoutFinalBlock(t *testing.T) {
	payload := []byte("a payload that never reaches a final block")
	w := new(streamBuilder)
	w.bits(0, 1).bits(kindStored, 2).bits(0, 5)
	w.bits(uint32(len(payload)), 16).bits(^uint32(len(payload)), 16)
	member := []byte{
		0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0, 0xff, 6, 0, 'B', 'C', 2, 0, 0, 0,
	}
	member = append(member, body(append(w.buf, payload...), payload, 0)...)
	binary.LittleEndian.PutUint16(member[16:], uint16(len(member)-1))
	stream := append(member, eofMarker...)
	got, err := io.ReadAll(NewReader(bytes.NewReader(stream)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read %q, %v; want ErrCorrupt", got, err)
	}
}

// FuzzInflateMember holds unwrapBlock to compress/flate on arbitrary
// DEFLATE streams, each wrapped in the footer of what compress/flate
// makes of it with ISIZE moved by lie: the same bytes for a good member,
// ErrCorrupt for any other, and never a panic.
func FuzzInflateMember(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	var streams [][]byte
	for _, c := range deflateCases() {
		p := c.Payload
		if len(p) > 8192 {
			p = p[:8192]
		}
		streams = append(streams, wrapStream(p))
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
			streams = append(streams, flateStream(f, p, level))
		}
	}
	for _, r := range edgeRows() {
		f.Add(r.stream, int8(r.lie))
	}
	for _, s := range streams {
		f.Add(s, int8(0))
		if len(s) == 0 {
			continue
		}
		flipped := bytes.Clone(s)
		flipped[rng.Intn(len(s))] ^= 1 << rng.Intn(8)
		f.Add(flipped, int8(0))
		f.Add(s[:rng.Intn(len(s))], int8(0))
		f.Add(append(bytes.Clone(s), 0x5a), int8(0))
		f.Add(s, int8(1))
	}
	f.Fuzz(func(t *testing.T, stream []byte, lie int8) {
		checkAgainstFlate(t, stream, int(lie))
	})
}
