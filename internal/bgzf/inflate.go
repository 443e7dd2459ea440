// The DEFLATE decoder under every BGZF read. compress/flate is a general
// streaming decoder: a 32 KiB window ring it copies every byte through,
// an io.Reader hop per call and a ReadByte per input byte. A BGZF member
// is at most 64 KiB in and out, both sizes known before the first bit, so
// here it decodes in one call straight into the ISIZE-sized output, the
// libdeflate design: a 64-bit bit buffer refilled eight bytes at a time,
// two-level decode tables whose entries carry the symbol's base, extra-bit
// count and code length, and match copies eight bytes at a time.
//
// It accepts exactly the streams compress/flate accepts (FuzzInflateMember
// holds the two together), with one rule on top that compress/flate leaves
// to its caller: the stream must reach its final block.

package bgzf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
)

const (
	litTableBits  = 10 // primary literal/length table index bits
	distTableBits = 8
	clTableBits   = maxCLBits // the code-length code needs no subtable
	pairRoom      = 16 << 10  // the least output left for which a block's literals pair

	// A primary table plus the most subtable entries a code the decoder
	// accepts can need. Only a complete code has subtables, and a complete
	// subtable of 2^k entries holds at least k+1 codes, so the entries per
	// code peak at the deepest subtable, k = maxBits - primary bits.
	litTableSize  = 1<<litTableBits + 288/(maxBits-litTableBits+1)<<(maxBits-litTableBits)
	distTableSize = 1<<distTableBits + 32/(maxBits-distTableBits+1)<<(maxBits-distTableBits)
)

// A decode-table entry. Bits 0–4 hold how many bits the entry consumes
// (code length plus extra bits; for a link, the primary bits), bits 8–11
// the code length alone (for a link, the subtable's index bits), bits
// 12–13 a literal entry's byte count (0 for any other), and bits 16–31
// the value: a literal, a length or distance base, a code-length symbol,
// or a link's subtable offset. A primary entry of count 2 is a pair: two
// literal codes, bits 16–23 the first literal and 24–31 the second.
const (
	entTotal = 0x1f
	entEOB   = 1 << 6
	entLink  = 1 << 7
	entBad   = entEOB | entLink // a codeword no symbol has, or a symbol DEFLATE forbids
	entLit   = 3 << 12
)

// The leaf templates: each symbol's entry before its code length is added.
var (
	litLeaf  [288]uint32
	distLeaf [32]uint32
	clLeaf   [numCL]uint32

	fixedTables huffTables
)

// initDecodeTables builds the leaf templates and the fixed code's decode
// tables, from the encoder's fixed code lengths: deflate.go's init calls
// it once those are set.
func initDecodeTables() {
	for s := range litLeaf {
		switch {
		case s < endBlock:
			litLeaf[s] = 1<<12 | uint32(s)<<16
		case s == endBlock:
			litLeaf[s] = entEOB
		case s < numLit:
			litLeaf[s] = uint32(lenExtra[s-257]) | uint32(lenBase[s-257])<<16
		default:
			litLeaf[s] = entBad
		}
	}
	for s := range distLeaf {
		distLeaf[s] = entBad
		if s < numDist {
			distLeaf[s] = uint32(distExtra[s]) | uint32(distBase[s])<<16
		}
	}
	for s := range clLeaf {
		clLeaf[s] = uint32(s) << 16
	}
	buildTable(fixedTables.lit[:], litTableBits, fixedLit.len[:], litLeaf[:])
	buildTable(fixedTables.dist[:], distTableBits, bytes.Repeat([]byte{5}, 32), distLeaf[:])
}

// huffTables is one block's literal/length and distance decode tables.
type huffTables struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
}

// inflater holds the decode tables of the member it is decoding. It keeps
// no slice of a member's bytes, so a pooled one pins nothing.
type inflater struct {
	huffTables // the current dynamic block's codes
	cl         [1 << clTableBits]uint32
	lens       [numLit + numDist]uint8
}

// inflaters recycles decode tables across every member of every reader in
// the process, the read-side twin of deflators.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// Why a member is refused.
var (
	errTruncated   = fmt.Errorf("%w: deflate stream ends before its final block", ErrCorrupt)
	errBadCode     = fmt.Errorf("%w: invalid Huffman code", ErrCorrupt)
	errBadBlock    = fmt.Errorf("%w: invalid deflate block header", ErrCorrupt)
	errFar         = fmt.Errorf("%w: match distance before the start of the block", ErrCorrupt)
	errLong        = fmt.Errorf("%w: block longer than ISIZE", ErrCorrupt)
	errShort       = fmt.Errorf("%w: block shorter than ISIZE", ErrCorrupt)
	errCRCMismatch = fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
)

// unwrapBlock inflates a member body from blockScanner.scan (compressed
// data + footer) into dst's backing array when that holds ISIZE bytes,
// and returns it: the one function every BGZF read decompresses through.
// A member is good only if its DEFLATE stream decodes, through its final
// block, to exactly ISIZE bytes, ISIZE is within the format's limit and
// the CRC32 matches.
func unwrapBlock(dst, raw []byte) ([]byte, error) {
	footer := raw[len(raw)-footerSize:]
	isize := binary.LittleEndian.Uint32(footer[4:])
	if isize > MaxBlockSize {
		// The spec bounds uncompressed blocks at 64 KiB; a larger ISIZE is
		// corruption and must not drive the allocation below.
		return dst[:0], fmt.Errorf("%w: ISIZE %d exceeds format limit", ErrCorrupt, isize)
	}
	if cap(dst) < int(isize) {
		dst = make([]byte, isize)
	}
	dst = dst[:isize]
	f := inflaters.Get().(*inflater)
	err := f.inflate(dst, raw)
	inflaters.Put(f)
	if err == nil && crc32.ChecksumIEEE(dst) != binary.LittleEndian.Uint32(footer) {
		err = errCRCMismatch
	}
	return dst, err
}

// bitstream reads a member's DEFLATE stream LSB first through a 64-bit
// buffer. in is the member body, so the eight-byte footer after the
// stream's last byte lets every refill up to it be one load; past it,
// refills add zero bytes, and consumed() tells whether the decode has
// used more bits than the stream has.
type bitstream struct {
	in  []byte // DEFLATE stream + footer
	n   int    // DEFLATE stream length
	pos int    // next byte to load; may run past len(in)
	b   uint64 // buffered bits, next bit lowest
	nb  uint   // valid bits in b, at most 63
}

// refill tops the buffer up to at least 56 bits. It reports false once
// the bits consumed so far run past the end of the stream.
func (s *bitstream) refill() bool {
	if s.pos+8 <= len(s.in) {
		s.b |= binary.LittleEndian.Uint64(s.in[s.pos:]) << (s.nb & 63)
		s.pos += int(63-s.nb) >> 3
		s.nb |= 56
		return true
	}
	for ; s.nb < 56; s.nb += 8 {
		if s.pos < len(s.in) {
			s.b |= uint64(s.in[s.pos]) << s.nb
		}
		s.pos++
	}
	return s.consumed() <= 8*s.n
}

// consumed is the number of stream bits decoded so far.
func (s *bitstream) consumed() int { return 8*s.pos - int(s.nb) }

// bits consumes and returns the next n buffered bits.
func (s *bitstream) bits(n uint) uint32 {
	v := uint32(s.b & (1<<n - 1))
	s.b >>= n
	s.nb -= n
	return v
}

// take is bits after a refill if fewer than n are buffered.
func (s *bitstream) take(n uint) (uint32, bool) {
	if s.nb < n && !s.refill() {
		return 0, false
	}
	return s.bits(n), true
}

// inflate decodes the member body raw into all of dst.
func (f *inflater) inflate(dst, raw []byte) error {
	s := bitstream{in: raw, n: len(raw) - footerSize}
	out := 0
	for final := uint32(0); final == 0; {
		hdr, ok := s.take(3)
		if !ok {
			return errTruncated
		}
		final = hdr & 1
		var err error
		switch hdr >> 1 {
		case kindStored:
			out, err = s.stored(dst, out)
		case kindFixed:
			out, err = decodeHuffman(&fixedTables, dst, out, &s)
		case kindDynamic:
			if err = f.readCodes(&s); err == nil {
				if len(dst)-out >= pairRoom {
					pairLiterals(f.lit[:1<<litTableBits])
				}
				out, err = decodeHuffman(&f.huffTables, dst, out, &s)
			}
		default:
			err = errBadBlock
		}
		if err != nil {
			return err
		}
	}
	switch {
	case s.consumed() > 8*s.n:
		return errTruncated
	case out < len(dst):
		return errShort
	}
	return nil
}

// stored copies a stored block's bytes to dst[out:] and returns the new
// output length.
func (s *bitstream) stored(dst []byte, out int) (int, error) {
	s.nb &^= 7 // the rest of the current byte is padding
	p := s.pos - int(s.nb>>3)
	if p+4 > s.n {
		return out, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(s.in[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(s.in[p+2:]) {
		return out, errBadBlock
	}
	p += 4
	switch {
	case p+n > s.n:
		return out, errTruncated
	case n > len(dst)-out:
		return out, errLong
	}
	copy(dst[out:], s.in[p:p+n])
	s.pos, s.b, s.nb = p+n, 0, 0
	return out + n, nil
}

// readCodes reads a dynamic block's code lengths and builds its tables.
func (f *inflater) readCodes(s *bitstream) error {
	hdr, ok := s.take(14)
	if !ok {
		return errTruncated
	}
	nlit, ndist, ncl := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > numLit || ndist > numDist {
		return errBadBlock
	}
	var clLens [numCL]uint8
	for _, sym := range clOrder[:ncl] {
		l, ok := s.take(3)
		if !ok {
			return errTruncated
		}
		clLens[sym] = uint8(l)
	}
	if !buildTable(f.cl[:], clTableBits, clLens[:], clLeaf[:]) {
		return errBadCode
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if s.nb < 2*maxCLBits && !s.refill() { // a code and its extra bits
			return errTruncated
		}
		e := f.cl[s.b&(1<<clTableBits-1)]
		if e&entBad != 0 {
			return errBadCode
		}
		s.b >>= e & entTotal
		s.nb -= uint(e & entTotal)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep uint32
		var l uint8
		switch sym {
		case 16:
			if i == 0 {
				return errBadCode
			}
			rep, l = 3+s.bits(2), lens[i-1]
		case 17:
			rep = 3 + s.bits(3)
		default:
			rep = 11 + s.bits(7)
		}
		if i+int(rep) > len(lens) {
			return errBadCode
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = l
		}
	}
	if !buildTable(f.lit[:], litTableBits, lens[:nlit], litLeaf[:]) ||
		!buildTable(f.dist[:], distTableBits, lens[nlit:], distLeaf[:]) {
		return errBadCode
	}
	return nil
}

// pairLiterals folds into each literal entry of a literal/length primary
// table the literal that the rest of its index decodes to, when that
// one's code fits there too: the entry then consumes both codes. Entry
// j's follower is entry j>>l1, at or below j. A follower already paired
// (count 2) is never folded in, and the walk runs from the top down so
// that every follower is read before it is paired itself. The fixed
// code's literals are 8 and 9 bits long, so only dynamic blocks pair,
// and only those with pairRoom bytes of output left: the pass costs
// about what pairs save in decoding 16 KiB of a BAM.
func pairLiterals(root []uint32) {
	for j := len(root) - 1; j >= 0; j-- {
		e := root[j]
		next := root[j>>(e&entTotal)]
		if e&next&(1<<12) != 0 && e&entTotal+next&entTotal <= litTableBits {
			root[j] = e + next&entTotal + 1<<12 | next>>16<<24
		}
	}
}

// buildTable fills t — a primary table of 1<<primary entries, then
// subtables — with the canonical Huffman code the lengths lens define, the
// entry of symbol s being leaf[s] plus its code length. It refuses what
// compress/flate refuses: an over-subscribed code, or an incomplete one
// other than a single one-bit code. That code and the empty one leave
// their unused codewords entBad.
func buildTable(t []uint32, primary uint, lens []uint8, leaf []uint32) bool {
	var count [maxBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, maxLen := 1, 0
	for l := 1; l <= maxBits; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
		if count[l] > 0 {
			maxLen = l
		}
	}
	if left > 0 && maxLen > 1 {
		return false
	}
	root := t[:1<<primary]
	if left > 0 { // empty, or a single one-bit code: symbol 0 or nothing
		for i := range root {
			root[i] = entBad
		}
		if s := bytes.IndexByte(lens, 1); s >= 0 {
			for i := 0; i < len(root); i += 2 {
				root[i] = leaf[s] + 1<<8 + 1
			}
		}
		return true
	}

	// Symbols in canonical order: by length, then by symbol.
	var start [maxBits + 2]int
	for l := 1; l <= maxBits; l++ {
		start[l+1] = start[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[start[l]] = uint16(s)
			start[l]++
		}
	}

	code, next, i := 0, len(root), 0
	sub, subPrefix := []uint32(nil), -1
	for l := 1; l <= maxLen; l++ {
		for ; count[l] > 0; count[l]-- {
			s := sorted[i]
			i++
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			e := leaf[s] + uint32(l)<<8 + uint32(l)
			if l <= int(primary) {
				for j := rev; j < len(root); j += 1 << l {
					root[j] = e
				}
				continue
			}
			if prefix := rev & (1<<primary - 1); prefix != subPrefix {
				// A new subtable, as deep as the longest code left under
				// this prefix: the remaining codes fill it exactly.
				k := l - int(primary)
				for room := 1 << k; int(primary)+k < maxLen; k++ {
					if room -= count[int(primary)+k]; room <= 0 {
						break
					}
					room <<= 1
				}
				sub, subPrefix = t[next:next+1<<k], prefix
				root[prefix] = entLink | uint32(k)<<8 | uint32(next)<<16 | uint32(primary)
				next += 1 << k
			}
			for j := rev >> primary; j < len(sub); j += 1 << (l - int(primary)) {
				sub[j] = e
			}
		}
		code <<= 1
	}
	return true
}

// fastOut is the output room decodeHuffman's fast loop keeps: the
// longest match, and the overrun of its last eight-byte store.
const fastOut = maxMatch + 8

// decodeHuffman decodes one Huffman block's symbols with tables t into
// dst[out:] and returns the new output length. It is libdeflate's split:
// a fast loop runs while at least fastOut bytes of output and eight of
// input are left, so no symbol can overrun either and its stores,
// refills and copies need no bounds checks, and a checked loop decodes
// the block's last bytes.
func decodeHuffman(t *huffTables, dst []byte, out int, s *bitstream) (int, error) {
	if !s.refill() {
		return out, errTruncated
	}
	in, pos, b, nb, o := s.in, uint(s.pos), s.b, s.nb, uint(out)
	// A refill loads all 64 bits, so the next entry can be looked up
	// after up to 54 bits are consumed, whatever nb says.
	e := t.lit[b&(1<<litTableBits-1)]
	for o < uint(len(dst)) && pos < uint(len(in)) {
		w, r := dst[o:], in[pos:]
		if len(w) < fastOut || len(r) < 8 {
			break
		}
		a := (*[fastOut]byte)(w)
		b |= binary.LittleEndian.Uint64(r) << (nb & 63)
		pos += uint(63-nb) >> 3
		nb |= 56
		if e&entBad == entLink {
			e = t.lit[e>>16+uint32(b>>litTableBits)&(1<<(e>>8&15)-1)]
		}
		if e&entLit != 0 {
			// Up to four entries before a refill, only the first from a
			// subtable: 45 bits and eight bytes at most. c counts the
			// bits (bits 0–11), bytes (12–15) and entries (16 and up)
			// taken, one add an entry: fewer live values, fewer spills.
			c := uint(0)
			for c < 4<<16 && e&entLit != 0 {
				b >>= e & entTotal
				binary.LittleEndian.PutUint16(a[c>>12&7:], uint16(e>>16))
				c += uint(e&(entTotal|entLit)) + 1<<16
				e = t.lit[b&(1<<litTableBits-1)]
			}
			nb -= c & 0xfff
			o += c >> 12 & 15
			continue
		}
		n := uint(e & entTotal)
		if e&entBad != 0 {
			s.pos, s.b, s.nb = int(pos), b>>n, nb-n
			if e&entBad == entEOB {
				return int(o), nil
			}
			return int(o), errBadCode
		}
		length := uint(e>>16) + uint(b&(1<<n-1)>>(e>>8&15))
		b >>= n
		e = t.dist[b&(1<<distTableBits-1)]
		if e&entBad == entLink {
			e = t.dist[e>>16+uint32(b>>distTableBits)&(1<<(e>>8&15)-1)]
		}
		if e&entBad != 0 {
			return int(o), errBadCode
		}
		nb -= n + uint(e&entTotal) // both codes and their extra bits
		n = uint(e & entTotal)
		dist := uint(e>>16) + uint(b&(1<<n-1)>>(e>>8&15))
		b >>= n
		if dist > o {
			return int(o), errFar
		}
		src := (*[fastOut]byte)(dst[o-dist:])
		switch {
		case dist >= 8 && length <= 16:
			binary.LittleEndian.PutUint64(a[:], binary.LittleEndian.Uint64(src[:]))
			binary.LittleEndian.PutUint64(a[8:], binary.LittleEndian.Uint64(src[8:]))
		case dist >= 8:
			// Eight bytes at a time: each load ends before its store
			// starts, the last store's overrun is rewritten later, and
			// i < maxMatch (length is at most that) drops the checks.
			for i := uint(0); i < length && i < maxMatch; i += 8 {
				binary.LittleEndian.PutUint64(a[i:], binary.LittleEndian.Uint64(src[i:]))
			}
		default:
			for i := uint(0); i < length && i < maxMatch; i++ {
				a[i] = src[i]
			}
		}
		o += length
		e = t.lit[b&(1<<litTableBits-1)]
	}
	s.pos, s.b, s.nb, out = int(pos), b, nb, int(o)
	// The checked loop: the block's last bytes, one symbol a refill.
	for {
		if !s.refill() {
			return out, errTruncated
		}
		e := t.lit[s.b&(1<<litTableBits-1)]
		if e&entBad == entLink {
			e = t.lit[e>>16+uint32(s.b>>litTableBits)&(1<<(e>>8&15)-1)]
		}
		x := s.bits(uint(e & entTotal))
		if k := int(e & entLit >> 12); k > 0 {
			if k > len(dst)-out {
				return out, errLong
			}
			dst[out] = byte(e >> 16)
			if k == 2 {
				dst[out+1] = byte(e >> 24)
			}
			out += k
			continue
		}
		if e&entBad != 0 {
			if e&entBad == entEOB {
				return out, nil
			}
			return out, errBadCode
		}
		length := int(e>>16) + int(x>>(e>>8&15))
		e = t.dist[s.b&(1<<distTableBits-1)]
		if e&entBad == entLink {
			e = t.dist[e>>16+uint32(s.b>>distTableBits)&(1<<(e>>8&15)-1)]
		}
		if e&entBad != 0 {
			return out, errBadCode
		}
		dist := int(e>>16) + int(s.bits(uint(e&entTotal))>>(e>>8&15))
		switch {
		case dist > out:
			return out, errFar
		case length > len(dst)-out:
			return out, errLong
		}
		for end := out + length; out < end; out++ {
			dst[out] = dst[out-dist]
		}
	}
}
