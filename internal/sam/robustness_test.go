package sam

import (
	"math/rand"
	"strings"
	"testing"
)

// Parsers must never panic on arbitrary mutations of valid input — they
// either parse or return an error. This is the fuzz-shaped safety net for
// the converter's hot path, which feeds attacker-adjacent data (files
// from other tools) through ParseRecordIntoBytes millions of times.
func TestParseRecordNeverPanicsOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := sampleLine
	mutate := func(s string) string {
		b := []byte(s)
		switch rng.Intn(5) {
		case 0: // flip a byte
			if len(b) > 0 {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
		case 1: // truncate
			if len(b) > 0 {
				b = b[:rng.Intn(len(b))]
			}
		case 2: // duplicate a slice
			if len(b) > 2 {
				i, j := rng.Intn(len(b)), rng.Intn(len(b))
				if i > j {
					i, j = j, i
				}
				b = append(b[:j], append(append([]byte{}, b[i:j]...), b[j:]...)...)
			}
		case 3: // insert tabs
			b = append(b, '\t')
			b = append(b, b[:rng.Intn(len(b))]...)
		case 4: // swap two bytes
			if len(b) > 1 {
				i, j := rng.Intn(len(b)), rng.Intn(len(b))
				b[i], b[j] = b[j], b[i]
			}
		}
		return string(b)
	}
	var rec Record
	for trial := 0; trial < 20000; trial++ {
		line := base
		for m := 0; m <= rng.Intn(4); m++ {
			line = mutate(line)
		}
		// Must not panic; error or success are both fine.
		_ = ParseRecordIntoBytes(&rec, []byte(line))
	}
}

func TestParseCigarNeverPanicsOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "0123456789MIDNSHP=X*abc-"
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(20)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		_, _ = ParseCigar(b.String())
	}
}

func TestParseHeaderNeverPanicsOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := sampleHeader
	var lines []string
	for trial := 0; trial < 5000; trial++ {
		b := []byte(base)
		for m := 0; m < 3; m++ {
			if len(b) > 0 {
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			}
		}
		_, _ = ParseHeader(string(b))
		lines = lines[:0]
	}
}

func TestParseTagNeverPanicsOnShortInputs(t *testing.T) {
	// Exhaustive short strings around the 5-byte minimum.
	alphabet := []byte{':', 'i', 'Z', 'A', 'B', 'x', '1'}
	var build func(prefix []byte, depth int)
	build = func(prefix []byte, depth int) {
		_, _ = ParseTag(string(prefix))
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			build(append(prefix, c), depth-1)
		}
	}
	build(nil, 5)
}
