package bgzf

import (
	"bytes"
	"math/rand"
	"testing"
)

type deflateCase struct {
	Name    string
	Payload []byte
}

// deflateCases is the encoder's correctness table; the simdata-derived
// rows live in deflate_sim_test.go.
func deflateCases() []deflateCase {
	rng := rand.New(rand.NewSource(27))
	random := make([]byte, MaxPayload)
	rng.Read(random)

	// The same 32 bytes exactly windowSize apart (a usable match), and
	// another 32 one byte farther apart (not codable), in noise.
	edge := bytes.Clone(random)
	copy(edge[windowSize:], edge[:32])
	copy(edge[100+windowSize+1:], edge[100:132])

	// Byte s occurs Fibonacci(s) times: an unlimited Huffman code would
	// be 21 bits deep.
	var fib []byte
	for s, a, b := 0, 1, 1; len(fib)+a <= MaxPayload; s, a, b = s+1, b, a+b {
		fib = append(fib, bytes.Repeat([]byte{byte(s)}, a)...)
	}
	rng.Shuffle(len(fib), func(i, j int) { fib[i], fib[j] = fib[j], fib[i] })

	return []deflateCase{
		{"empty", nil},
		{"one byte", []byte{0x42}},
		{"three bytes", []byte("abc")},
		{"zeros", make([]byte, MaxPayload)},
		{"random", random},
		{"four-byte pattern", bytes.Repeat([]byte("ACGT"), MaxPayload/4)},
		{"window edge", edge},
		{"fibonacci", fib},
	}
}

func TestDeflateTable(t *testing.T) {
	var d deflator
	for _, c := range deflateCases() {
		t.Run(c.Name, func(t *testing.T) {
			member := d.wrap(nil, c.Payload)
			CheckMember(t, c.Payload, member)
			btype := member[headerSize] >> 1 & 3
			switch c.Name {
			case "empty":
				if !bytes.Equal(member, eofMarker) {
					t.Errorf("empty payload wraps to % x, want the EOF marker", member)
				}
			case "zeros":
				if len(member) > 200 {
					t.Errorf("%d zero bytes wrap to %d", len(c.Payload), len(member))
				}
			case "random":
				if btype != kindStored {
					t.Errorf("incompressible payload took BTYPE %d, want stored", btype)
				}
			case "window edge":
				var atEdge bool
				for _, tok := range d.tokens {
					dist, length := tok&0xffff, tok>>16+3
					if dist > windowSize {
						t.Fatalf("match at distance %d", dist)
					}
					atEdge = atEdge || (dist == windowSize && length == 32)
				}
				if !atEdge {
					t.Error("the match at distance 32768 was not taken")
				}
			}
		})
	}
}

// TestHuffmanLengthLimit builds codes from Fibonacci frequencies, whose
// unlimited depth passes both limits, and checks each code is complete,
// within its limit and no longer for a commoner symbol than a rarer one.
func TestHuffmanLengthLimit(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{{22, maxBits}, {numCL, maxCLBits}, {2, maxBits}, {40, maxBits}} {
		freq := make([]uint16, numLit)
		for s, a, b := 0, 1, 1; s < tc.n; s, a, b = s+1, b, a+b {
			freq[s] = uint16(min(a, 1<<16-1))
		}
		var h huffCode
		var scratch [numLit]uint32
		h.build(freq, tc.limit, &scratch)
		kraft := 0
		for s := 0; s < numLit; s++ {
			l := int(h.len[s])
			if (l != 0) != (s < tc.n) {
				t.Fatalf("n=%d: symbol %d has length %d", tc.n, s, l)
			}
			if l == 0 {
				continue
			}
			if l > tc.limit {
				t.Fatalf("n=%d: symbol %d is %d bits, limit %d", tc.n, s, l, tc.limit)
			}
			if s > 0 && freq[s] > freq[s-1] && l > int(h.len[s-1]) {
				t.Fatalf("n=%d: symbol %d (freq %d) is longer than symbol %d (freq %d)", tc.n, s, freq[s], s-1, freq[s-1])
			}
			kraft += 1 << (tc.limit - l)
		}
		if kraft != 1<<tc.limit {
			t.Fatalf("n=%d: Kraft sum %d/%d, code is not complete", tc.n, kraft, 1<<tc.limit)
		}
	}
}

// TestDeflatePure pins that a pooled deflator's output depends on the
// payload alone: whatever block it compressed before, the bytes are the
// ones a fresh deflator emits.
func TestDeflatePure(t *testing.T) {
	cases := deflateCases()
	var pooled deflator
	for _, c := range cases {
		var fresh deflator
		want := bytes.Clone(fresh.wrap(nil, c.Payload))
		for _, before := range cases[3:6] { // zeros, random, four-byte pattern
			pooled.wrap(nil, before.Payload)
			if got := pooled.wrap(nil, c.Payload); !bytes.Equal(got, want) {
				t.Fatalf("%q after %q differs from a fresh encoder's bytes", c.Name, before.Name)
			}
		}
	}
}
