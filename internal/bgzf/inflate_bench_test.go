package bgzf_test

import (
	"encoding/binary"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/simdata"
)

// memberBodies splits a BGZF stream the product wrote (one BC subfield,
// an 18-byte header) into the member bodies unwrapBlock takes: the
// DEFLATE stream and the footer. The empty EOF member is dropped.
func memberBodies(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var bodies [][]byte
	for len(stream) > 0 {
		if len(stream) < 18 {
			t.Fatalf("%d trailing bytes", len(stream))
		}
		size := int(binary.LittleEndian.Uint16(stream[16:])) + 1
		if binary.LittleEndian.Uint32(stream[size-4:]) > 0 {
			bodies = append(bodies, stream[18:size])
		}
		stream = stream[size:]
	}
	return bodies
}

// BenchmarkInflate is the one-core decode rate: the members of a seed-1
// simdata BAM, and the members of its PAMX seq column (all literals since
// the payload planner), inflated into one pre-sized buffer. MB/s counts
// output bytes. Run it at GOMAXPROCS 1 (-cpu 1) and compare interleaved
// runs of two test binaries. bench's bgzf.inflate_mb_s appends every
// block to a slice grown from nil, which costs about as much as the
// decode, so this is the decoder's instrument.
func BenchmarkInflate(b *testing.B) {
	bamSet, columns := simPayloads(b, simdata.DefaultConfig(20000))
	for _, set := range []payloadSet{bamSet, columns[3]} {
		var stream []byte
		for _, p := range set.payloads {
			stream = append(stream, deflateOne(b, p)...)
		}
		bodies := memberBodies(b, stream)
		out := 0
		for _, raw := range bodies {
			out += int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
		}
		b.Run(set.name, func(b *testing.B) {
			dst := make([]byte, bgzf.MaxBlockSize)
			b.SetBytes(int64(out))
			for b.Loop() {
				for _, raw := range bodies {
					if _, err := bgzf.UnwrapBlock(dst, raw); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
