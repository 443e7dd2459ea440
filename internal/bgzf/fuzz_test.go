package bgzf

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzBGZFRoundTrip drives both codecs with fuzzer-chosen payloads and
// block sizes, in two modes:
//
//   - corruptAt < 0: a clean round trip must reproduce the payload
//     exactly through every writer/reader pairing.
//   - corruptAt >= 0: one byte of the compressed stream is flipped; the
//     readers may still succeed (flips in ignored header bytes are
//     harmless) but must never panic, and any failure must be one of
//     the package's typed errors, never a raw slice bound or deflate
//     internal.
func FuzzBGZFRoundTrip(f *testing.F) {
	f.Add([]byte("hello bgzf"), 4096, -1, byte(0))
	f.Add([]byte{}, 0, -1, byte(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 70000), 512, 10, byte(0xFF))
	f.Add([]byte("corrupt me"), 16, 5, byte(0x01))

	f.Fuzz(func(t *testing.T, payload []byte, blockSize, corruptAt int, flip byte) {
		if len(payload) > 1<<20 {
			payload = payload[:1<<20]
		}

		var buf bytes.Buffer
		w := NewWriterSize(&buf, blockSize)
		if _, err := w.Write(payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		raw := buf.Bytes()

		// Parallel writer must produce byte-identical output.
		var pbuf bytes.Buffer
		pw := NewParallelWriterSize(&pbuf, blockSize, 3)
		if _, err := pw.Write(payload); err != nil {
			t.Fatalf("parallel Write: %v", err)
		}
		if err := pw.Close(); err != nil {
			t.Fatalf("parallel Close: %v", err)
		}
		if !bytes.Equal(raw, pbuf.Bytes()) {
			t.Fatal("parallel writer output differs from sequential")
		}

		if corruptAt >= 0 && len(raw) > 0 && flip != 0 {
			mutated := append([]byte(nil), raw...)
			mutated[corruptAt%len(mutated)] ^= flip
			raw = mutated
		}

		check := func(got []byte, err error) {
			if err == nil {
				if corruptAt < 0 && !bytes.Equal(got, payload) {
					t.Fatal("clean round trip mismatch")
				}
				return
			}
			if corruptAt < 0 {
				t.Fatalf("clean stream failed to decode: %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotBGZF) &&
				!errors.Is(err, ErrNoEOFMarker) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("corrupt stream produced untyped error: %v", err)
			}
		}

		got, err := io.ReadAll(NewReader(bytes.NewReader(raw)))
		check(got, err)

		pr := NewParallelReader(bytes.NewReader(raw), 3)
		got, err = io.ReadAll(pr)
		check(got, err)
		pr.Close()
	})
}
