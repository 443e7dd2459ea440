// The DEFLATE encoder under every BGZF write. compress/flate is a general
// streaming compressor: a sliding window it copies into, 640 KiB of
// 32-bit hash tables, byte-at-a-time match extension and an io.Writer
// hop per block. A BGZF payload is at most MaxPayload bytes, compressed
// once and never slid, so the same search — hash chains with one-step
// lazy evaluation, compress/flate level 6's parameters — runs here at
// about twice the speed: 16-bit chain tables indexed by payload offset,
// matches extended eight bytes at a time straight in the payload, tokens
// and symbol frequencies gathered in one pass, and one Huffman block per
// payload written through a 64-bit accumulator into the member buffer.
// The output is plain RFC 1951 and a pure function of the payload.

package bgzf

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Search parameters. They are constants, not options: DESIGN.md's codec
// section holds the speed/ratio frontier they were read off.
const (
	minMatch   = 4     // shortest match emitted (as compress/flate)
	maxMatch   = 258   // longest match DEFLATE can code
	windowSize = 32768 // farthest distance DEFLATE can code
	tooFar     = 4096  // a minMatch-long match farther than this costs more than its literals
	maxChain   = 96    // candidates examined per search
	goodLen    = 8     // a pending match this long quarters the chain
	lazyLen    = 16    // a pending match this long is taken without looking further
	niceLen    = 128   // a match this long ends the search

	hashBits = 15
	hashMul  = 0x1e35a7bd
)

const (
	numLit    = 286 // literal/length symbols
	numDist   = 30
	numCL     = 19 // code-length symbols
	endBlock  = 256
	maxBits   = 15 // literal/length and distance code length limit
	maxCLBits = 7
)

var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [numDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [numDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	clOrder   = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	lenCode  [256]uint8 // length-3 → length symbol-257
	distCode [512]uint8 // distance-1 below 256, else 256+(distance-1)>>7 → distance symbol

	fixedLit, fixedDist huffCode
)

func init() {
	for c := range lenBase {
		for l := int(lenBase[c]); l <= maxMatch && (c == 28 || l < int(lenBase[c+1])); l++ {
			lenCode[l-3] = uint8(c)
		}
	}
	for c := range distBase {
		end := windowSize
		if c+1 < numDist {
			end = int(distBase[c+1]) - 1
		}
		for d := int(distBase[c]) - 1; d < end; d++ {
			if d < 256 {
				distCode[d] = uint8(c)
			} else {
				distCode[256+d>>7] = uint8(c)
			}
		}
	}
	for s := 0; s < 288; s++ {
		switch {
		case s < 144, s >= 280:
			fixedLit.len[s] = 8
		case s < 256:
			fixedLit.len[s] = 9
		default:
			fixedLit.len[s] = 7
		}
	}
	fixedLit.assign(288)
	for s := 0; s < numDist; s++ {
		fixedDist.len[s] = 5
	}
	fixedDist.assign(numDist)
}

// huffCode is one canonical Huffman code: per symbol its length and its
// code with the bits already reversed for the LSB-first stream. It is
// sized for the largest alphabet (288 covers the fixed code's two unused
// literal/length symbols).
type huffCode struct {
	len  [288]uint8
	code [288]uint16
}

// assign derives the canonical codes of symbols [0, n) from their lengths.
func (h *huffCode) assign(n int) {
	var count, next [maxBits + 1]uint16
	for _, l := range h.len[:n] {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for b := 1; b <= maxBits; b++ {
		code = (code + count[b-1]) << 1
		next[b] = code
	}
	for s, l := range h.len[:n] {
		if l != 0 {
			h.code[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// build sets h to a length-limited Huffman code for freq. Like zlib it
// gives every code at least two symbols — a symbol nobody uses gets a
// one-bit code — so no decoder is shown an incomplete or empty code.
// sorted is scratch.
func (h *huffCode) build(freq []uint16, limit int, sorted *[numLit]uint32) {
	n := len(freq)
	clear(h.len[:n])
	used := 0
	for s, f := range freq {
		if f != 0 {
			sorted[used] = uint32(f)<<9 | uint32(s)
			used++
		}
	}
	for s := 0; used < 2; s++ {
		if freq[s] == 0 {
			sorted[used] = 1<<9 | uint32(s)
			used++
		}
	}
	a := sorted[:used]
	slices.Sort(a)

	// Moffat–Katajainen in-place minimum-redundancy lengths over the
	// ascending frequencies; w[i] becomes the depth of the i-th rarest.
	var w [numLit]int32
	for i, k := range a {
		w[i] = int32(k >> 9)
	}
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < used-1; next++ {
		if leaf >= used || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = int32(next)
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= used || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = int32(next)
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	w[used-2] = 0
	for next := used - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	avail, inUse, depth := 1, 0, int32(0)
	root, next := used-2, used-1
	for avail > 0 {
		for root >= 0 && w[root] == depth {
			inUse++
			root--
		}
		for avail > inUse {
			w[next] = depth
			next--
			avail--
		}
		avail, inUse = 2*inUse, 0
		depth++
	}

	// Fold depths past the limit into it, then repay the Kraft sum by
	// lengthening the deepest codes that still have room.
	var count [32]int
	for _, d := range w[:used] {
		count[min(int(d), limit)]++
	}
	total := 0
	for b := limit; b > 0; b-- {
		total += count[b] << (limit - b)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for b := limit - 1; b > 0; b-- {
			if count[b] > 0 {
				count[b]--
				count[b+1] += 2
				break
			}
		}
	}
	i := used
	for b := 1; b <= limit; b++ {
		for c := count[b]; c > 0; c-- {
			i--
			h.len[a[i]&0x1ff] = uint8(b)
		}
	}
	h.assign(n)
}

// deflator is the reusable state of one deflate worker, about 450 KiB;
// reusing it across blocks removes the dominant per-block allocation of
// the codec. Every table is rebuilt from the payload alone, so pooling
// deflators never changes what they emit.
type deflator struct {
	head [1 << hashBits]uint16 // hash → latest position+1; cleared per payload
	prev [MaxPayload]uint16    // position → previous position+1 with its hash; reached only through head

	tokens   []uint32 // length-3 <<16 | distance, or literal<<16 with distance 0
	litFreq  [numLit]uint16
	distFreq [numDist]uint16

	lit, dist, cl huffCode
	sorted        [numLit]uint32
	lens          [numLit + numDist]uint8 // both codes' lengths, as the header carries them
	clSyms        []uint16                // run-length coded lens: symbol | extra-bits value<<8
	lenSym        [256]uint32             // length-3 → code and extra bits | their width<<24

	kind, hlit, hdist, hclen int // the block plan settled on, for emit
}

func hash4(p []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(p[i:]) * hashMul >> (32 - hashBits)
}

// matchLen returns how many leading bytes of a and b agree; len(b) ≤ len(a).
func matchLen(a, b []byte) int {
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// longestMatch walks the hash chain from cand for a match at pos longer
// than best, the pending match of the previous position. It returns
// best and 0 when there is none.
func (e *deflator) longestMatch(p []byte, pos, cand, best, chain int) (length, dist int) {
	maxLen := min(len(p)-pos, maxMatch)
	nice := min(niceLen, maxLen)
	if best >= goodLen {
		chain >>= 2
	}
	floor := max(pos-windowSize, 0)
	word := binary.LittleEndian.Uint32(p[pos:])
	tail := p[pos+best] // a longer match must agree here
	for {
		if p[cand+best] == tail && binary.LittleEndian.Uint32(p[cand:]) == word {
			l := minMatch + matchLen(p[cand+minMatch:], p[pos+minMatch:pos+maxLen])
			if l > best && (l > minMatch || pos-cand <= tooFar) {
				best, dist = l, pos-cand
				if l >= nice {
					break
				}
				tail = p[pos+best]
			}
		}
		if chain--; chain <= 0 {
			break
		}
		if cand = int(e.prev[cand]) - 1; cand < floor {
			break
		}
	}
	return best, dist
}

// tokenize runs the LZ77 search over p, leaving the tokens and their
// symbol frequencies (end-of-block included) in e.
func (e *deflator) tokenize(p []byte, chain int) {
	clear(e.head[:])
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	if cap(e.tokens) < len(p) {
		e.tokens = make([]uint32, 0, MaxPayload)
	}
	tokens := e.tokens[:0]
	lastHash := len(p) - minMatch // last position with a full hash word
	insert := func(pos int) int {
		h := hash4(p, pos)
		cand := e.head[h]
		e.prev[pos] = cand
		e.head[h] = uint16(pos + 1)
		return int(cand) - 1
	}

	prevLen, prevDist, pending := minMatch-1, 0, false
	for pos := 0; pos < len(p); {
		curLen, curDist := minMatch-1, 0
		if pos <= lastHash {
			cand := insert(pos)
			if cand >= 0 && pos-cand <= windowSize && prevLen < lazyLen && prevLen < len(p)-pos {
				curLen, curDist = e.longestMatch(p, pos, cand, prevLen, chain)
			}
		}
		if prevLen >= minMatch && curLen <= prevLen {
			// The match pending at pos-1 stands.
			tokens = append(tokens, uint32(prevLen-3)<<16|uint32(prevDist))
			e.litFreq[257+int(lenCode[prevLen-3])]++
			e.distFreq[distSym(prevDist)]++
			end := pos - 1 + prevLen
			for pos++; pos < end; pos++ {
				if pos <= lastHash {
					insert(pos)
				}
			}
			prevLen, pending = minMatch-1, false
			continue
		}
		if pending {
			tokens = append(tokens, uint32(p[pos-1])<<16)
			e.litFreq[p[pos-1]]++
		}
		prevLen, prevDist, pending = curLen, curDist, true
		pos++
	}
	if pending {
		tokens = append(tokens, uint32(p[len(p)-1])<<16)
		e.litFreq[p[len(p)-1]]++
	}
	e.litFreq[endBlock] = 1
	e.tokens = tokens
}

func distSym(dist int) uint8 {
	if dist <= 256 {
		return distCode[dist-1]
	}
	return distCode[256+(dist-1)>>7]
}

// bitWriter appends an LSB-first bit stream to out. Callers keep each
// add at or below 32 bits.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) add(v uint32, width uint) {
	w.acc |= uint64(v) << w.n
	if w.n += width; w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// flush pads to a byte boundary and returns the stream.
func (w *bitWriter) flush() []byte {
	for n := int(w.n); n > 0; n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w.out
}

// header run-length codes the two codes' lengths into e.clSyms, builds
// the code-length code, sets the counts the block header carries and
// returns the header's size in bits.
func (e *deflator) header() int {
	hlit, hdist := numLit, numDist
	for ; hlit > 257 && e.lit.len[hlit-1] == 0; hlit-- {
	}
	for ; hdist > 1 && e.dist.len[hdist-1] == 0; hdist-- {
	}
	lens := e.lens[:hlit+hdist]
	copy(lens, e.lit.len[:hlit])
	copy(lens[hlit:], e.dist.len[:hdist])

	var freq [numCL]uint16
	syms := e.clSyms[:0]
	put := func(sym, extra int) {
		syms = append(syms, uint16(sym|extra<<8))
		freq[sym]++
	}
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				put(18, min(run, 138)-11)
			}
			if run >= 3 {
				put(17, run-3)
				run = 0
			}
		} else if run >= 4 {
			put(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				put(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			put(int(l), 0)
		}
	}
	e.clSyms = syms

	e.cl.build(freq[:], maxCLBits, &e.sorted)
	hclen := numCL
	for ; hclen > 4 && e.cl.len[clOrder[hclen-1]] == 0; hclen-- {
	}
	e.hlit, e.hdist, e.hclen = hlit, hdist, hclen
	size := 5 + 5 + 4 + 3*hclen + 2*int(freq[16]) + 3*int(freq[17]) + 7*int(freq[18])
	for s, f := range freq {
		size += int(f) * int(e.cl.len[s])
	}
	return size
}

// bodyBits is the size of the tokens and end-of-block under the given codes.
func (e *deflator) bodyBits(lit, dist *huffCode) int {
	n := 0
	for s, f := range e.litFreq {
		n += int(f) * int(lit.len[s])
		if s > endBlock {
			n += int(f) * int(lenExtra[s-257])
		}
	}
	for s, f := range e.distFreq {
		n += int(f) * int(dist.len[s]+distExtra[s])
	}
	return n
}

// Block kinds, as BTYPE codes them.
const (
	kindStored = iota
	kindFixed
	kindDynamic
)

// plan compresses p as one final DEFLATE block — dynamic Huffman, fixed
// Huffman or stored, whichever is smallest — up to the point of writing
// it, and returns its size in bytes: never more than len(p)+5. emit
// writes the block planned last.
func (e *deflator) plan(p []byte, chain int) int {
	e.tokenize(p, chain)
	e.lit.build(e.litFreq[:], maxBits, &e.sorted)
	e.dist.build(e.distFreq[:], maxBits, &e.sorted)
	dynamic := 3 + e.header() + e.bodyBits(&e.lit, &e.dist)
	fixed := 3 + e.bodyBits(&fixedLit, &fixedDist)
	e.kind = kindDynamic
	if fixed <= dynamic {
		e.kind = kindFixed
	}
	size := (min(dynamic, fixed) + 7) / 8
	if 5+len(p) <= size {
		e.kind, size = kindStored, 5+len(p)
	}
	return size
}

// emit appends the block plan(p) settled on to dst.
func (e *deflator) emit(dst, p []byte) []byte {
	if e.kind == kindStored {
		dst = append(dst, 1, byte(len(p)), byte(len(p)>>8), ^byte(len(p)), ^byte(len(p)>>8))
		return append(dst, p...)
	}
	w := bitWriter{out: dst}
	w.add(1|uint32(e.kind)<<1, 3)
	lit, dist := &fixedLit, &fixedDist
	if e.kind == kindDynamic {
		lit, dist = &e.lit, &e.dist
		w.add(uint32(e.hlit-257), 5)
		w.add(uint32(e.hdist-1), 5)
		w.add(uint32(e.hclen-4), 4)
		for _, s := range clOrder[:e.hclen] {
			w.add(uint32(e.cl.len[s]), 3)
		}
		for _, s := range e.clSyms {
			sym := s & 0xff
			w.add(uint32(e.cl.code[sym]), uint(e.cl.len[sym]))
			switch sym {
			case 16:
				w.add(uint32(s>>8), 2)
			case 17:
				w.add(uint32(s>>8), 3)
			case 18:
				w.add(uint32(s>>8), 7)
			}
		}
	}

	// One lookup per match length: its code with the extra bits behind it.
	for l := range e.lenSym {
		c := lenCode[l]
		width := uint32(lit.len[257+int(c)])
		extra := uint32(l+3) - uint32(lenBase[c])
		e.lenSym[l] = uint32(lit.code[257+int(c)]) | extra<<width | (width+uint32(lenExtra[c]))<<24
	}
	for _, t := range e.tokens {
		d := t & 0xffff
		if d == 0 {
			w.add(uint32(lit.code[t>>16]), uint(lit.len[t>>16]))
			continue
		}
		ls := e.lenSym[t>>16]
		w.add(ls&0xffffff, uint(ls>>24))
		c := distSym(int(d))
		width := uint(dist.len[c])
		w.add(uint32(dist.code[c])|(d-uint32(distBase[c]))<<width, width+uint(distExtra[c]))
	}
	w.add(uint32(lit.code[endBlock]), uint(lit.len[endBlock]))
	return w.flush()
}
