package bgzf

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"io"
	"testing"
)

// What the external tests (package bgzf_test: they import simdata, which
// imports this package) need from inside.

// DeflateCases is the encoder's correctness table.
var DeflateCases = deflateCases

// MaxChain is the chain depth of the full search.
const MaxChain = maxChain

// NewRawDeflate returns the product's encoder bare, without the BGZF
// wrapping.
func NewRawDeflate() func(dst, p []byte) []byte {
	e := new(deflator)
	return func(dst, p []byte) []byte {
		e.plan(p)
		return e.emit(dst[:0], p)
	}
}

// NewFullDeflate is NewRawDeflate with no planner: the full search over
// the whole payload at a chosen chain depth, for the frontier table and
// the planner's byte bounds.
func NewFullDeflate(chain int) func(dst, p []byte) []byte {
	e := new(deflator)
	return func(dst, p []byte) []byte {
		st := e.begin(p)
		e.search(p, &st, len(p), chain)
		e.finish(p, &st)
		e.planTokens(len(p))
		return e.emit(dst[:0], p)
	}
}

// NewReferenceDeflate is NewRawDeflate over the reference search below,
// which tests a candidate on the one byte at best where the encoder tests
// the four bytes ending there. The planner runs both at every depth it
// uses, and they must emit the same bytes.
func NewReferenceDeflate() func(dst, p []byte) []byte {
	e := new(deflator)
	return func(dst, p []byte) []byte {
		e.tokenize(p, refSearch)
		e.planTokens(len(p))
		return e.emit(dst[:0], p)
	}
}

// PlanTiers reports how the planner codes p: the bytes searched at
// maxChain (its trials included), at the shallow chain, and coded as
// literals.
func PlanTiers(p []byte) (full, shallow, literal int) {
	e := new(deflator)
	e.tokenize(p, func(e *deflator, p []byte, st *searchState, end, chain int) {
		from := st.pos
		e.search(p, st, end, chain)
		if chain == shallowChain {
			shallow += st.pos - from
		} else {
			full += st.pos - from
		}
	})
	return full, shallow, len(p) - full - shallow
}

// refLongestMatch rejects a candidate on the one byte at best.
func refLongestMatch(e *deflator, p []byte, pos, cand, best, chain int) (length, dist int) {
	maxLen := min(len(p)-pos, maxMatch)
	nice := min(niceLen, maxLen)
	if best >= goodLen {
		chain >>= 2
	}
	floor := max(pos-windowSize, 0)
	word := binary.LittleEndian.Uint32(p[pos:])
	tail := p[pos+best]
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

// refSearch is deflator.search calling refLongestMatch.
func refSearch(e *deflator, p []byte, st *searchState, end, chain int) {
	tokens := e.tokens
	lastHash := len(p) - minMatch
	pos, prevLen, prevDist, pending := st.pos, st.prevLen, st.prevDist, st.pending
	for pos < end {
		curLen, curDist := minMatch-1, 0
		if pos <= lastHash {
			cand := e.insert(p, pos)
			if cand >= 0 && pos-cand <= windowSize && prevLen < lazyLen && prevLen < len(p)-pos {
				curLen, curDist = refLongestMatch(e, p, pos, cand, prevLen, chain)
			}
		}
		if prevLen >= minMatch && curLen <= prevLen {
			tokens = append(tokens, uint32(prevLen-3)<<16|uint32(prevDist))
			e.litFreq[257+int(lenCode[prevLen-3])]++
			e.distFreq[distSym(prevDist)]++
			matchEnd := pos - 1 + prevLen
			for pos++; pos < matchEnd; pos++ {
				if pos <= lastHash {
					e.insert(p, pos)
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
	e.tokens = tokens
	*st = searchState{pos, prevLen, prevDist, pending}
}

// CheckMember fails t unless member is a BGZF member that both
// compress/flate and compress/gzip inflate back to payload and that
// respects the format's and the encoder's size limits.
func CheckMember(t testing.TB, payload, member []byte) {
	t.Helper()
	if len(member) > MaxBlockSize {
		t.Fatalf("member of %d bytes exceeds MaxBlockSize", len(member))
	}
	if most := headerSize + 5 + len(payload) + footerSize; len(member) > most {
		t.Fatalf("member of %d bytes is larger than a stored block (%d)", len(member), most)
	}
	raw := member[headerSize : len(member)-footerSize]
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("compress/flate: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compress/flate inflates different bytes")
	}
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		t.Fatalf("compress/gzip header: %v", err)
	}
	zr.Multistream(false)
	if got, err = io.ReadAll(zr); err != nil {
		t.Fatalf("compress/gzip: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compress/gzip inflates different bytes")
	}
}
