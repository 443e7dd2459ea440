package bgzf

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// readerModes opens an inline and a pooled reader, so every test that
// ranges over it runs in both modes.
var readerModes = map[string]func(io.Reader) *Reader{
	"sequential": NewReader,
	"parallel":   func(r io.Reader) *Reader { return NewParallelReader(r, 3) },
}

func closeSource(t *testing.T, src *Reader) {
	t.Helper()
	if err := src.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// Draining a stream through NextBlock must yield exactly the bytes Read
// yields, and every returned virtual offset must resolve — Seek there on
// a fresh reader and the same bytes follow.
func TestNextBlockConcatMatchesRead(t *testing.T) {
	data := testData(5*MaxPayload+321, 51)
	raw := compress(t, data, 4096)
	for name, open := range readerModes {
		t.Run(name, func(t *testing.T) {
			src := open(bytes.NewReader(raw))
			defer closeSource(t, src)
			var got []byte
			type blockAt struct {
				off  VOffset
				size int
			}
			var blocks []blockAt
			for {
				blk, off, err := src.NextBlock()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("NextBlock: %v", err)
				}
				if len(blk) == 0 {
					t.Fatal("NextBlock returned an empty block without EOF")
				}
				blocks = append(blocks, blockAt{off, len(blk)})
				got = append(got, blk...)
				src.Recycle(blk)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("NextBlock concat = %d bytes, differs from input (%d bytes)", len(got), len(data))
			}
			// Each recorded offset must point at the bytes that followed it.
			sr := NewReader(bytes.NewReader(raw))
			pos := 0
			for i, b := range blocks {
				if err := sr.Seek(b.off); err != nil {
					t.Fatalf("Seek(block %d @ %v): %v", i, b.off, err)
				}
				buf := make([]byte, b.size)
				if _, err := io.ReadFull(sr, buf); err != nil {
					t.Fatalf("read at block %d: %v", i, err)
				}
				if !bytes.Equal(buf, data[pos:pos+b.size]) {
					t.Fatalf("block %d voffset %v resolves to wrong bytes", i, b.off)
				}
				pos += b.size
			}
		})
	}
}

// NextBlock after a partial Read returns the unread remainder of the
// block, with the intra-block offset baked into the virtual offset.
func TestNextBlockAfterPartialRead(t *testing.T) {
	data := testData(2*MaxPayload, 53)
	raw := compress(t, data, 8192)
	const skip = 1000
	for name, open := range readerModes {
		t.Run(name, func(t *testing.T) {
			src := open(bytes.NewReader(raw))
			defer closeSource(t, src)
			head := make([]byte, skip)
			if _, err := io.ReadFull(src, head); err != nil {
				t.Fatal(err)
			}
			blk, off, err := src.NextBlock()
			if err != nil {
				t.Fatalf("NextBlock: %v", err)
			}
			if off.Intra() != skip%8192 {
				t.Errorf("intra offset = %d, want %d", off.Intra(), skip%8192)
			}
			got := append(append([]byte{}, head...), blk...)
			rest, err := io.ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rest...)
			if !bytes.Equal(got, data) {
				t.Error("partial Read + NextBlock + Read does not reassemble the stream")
			}
		})
	}
}

// Interleaving Read and NextBlock must keep Offset consistent with the
// sequential reader at every step.
func TestNextBlockOffsetParity(t *testing.T) {
	data := testData(3*MaxPayload+99, 55)
	raw := compress(t, data, 2048)
	seq := NewReader(bytes.NewReader(raw))
	par := NewParallelReader(bytes.NewReader(raw), 2)
	defer par.Close()
	for step := 0; ; step++ {
		if so, po := seq.Offset(), par.Offset(); so != po {
			t.Fatalf("step %d: offsets diverge (%v vs %v)", step, so, po)
		}
		sb, so, serr := seq.NextBlock()
		pb, po, perr := par.NextBlock()
		if (serr == nil) != (perr == nil) {
			t.Fatalf("step %d: NextBlock err %v vs %v", step, serr, perr)
		}
		if serr != nil {
			if serr != io.EOF || perr != io.EOF {
				t.Fatalf("step %d: terminal errs %v vs %v", step, serr, perr)
			}
			break
		}
		if so != po {
			t.Fatalf("step %d: NextBlock offsets %v vs %v", step, so, po)
		}
		if !bytes.Equal(sb, pb) {
			t.Fatalf("step %d: block contents differ", step)
		}
		seq.Recycle(sb)
		par.Recycle(pb)
	}
}

// Codec errors must propagate through NextBlock exactly as through Read.
func TestNextBlockErrorPropagation(t *testing.T) {
	data := testData(3*MaxPayload, 57)
	whole := compress(t, data, 4096)

	truncated := whole[:len(whole)-len(eofMarker)]
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-len(eofMarker)-8] ^= 0xff

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"truncated", truncated, ErrNoEOFMarker},
		{"corrupt-crc", corrupt, ErrCorrupt},
	}
	for _, tc := range cases {
		for name, open := range readerModes {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				src := open(bytes.NewReader(tc.raw))
				defer closeSource(t, src)
				var err error
				for {
					var blk []byte
					blk, _, err = src.NextBlock()
					if err != nil {
						break
					}
					src.Recycle(blk)
				}
				if !errors.Is(err, tc.want) {
					t.Errorf("terminal NextBlock err = %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// Seek-then-NextBlock regression: after seeking to a recorded virtual
// offset — block-aligned or intra-block — NextBlock must return that
// offset and the bytes written there. The parallel reader restarts its
// prefetch pipeline on every Seek; iterating the offsets out of order
// exercises the drain-and-restart path repeatedly without leaking
// readahead buffers (the -race CI run guards the bookkeeping).
func TestSeekThenNextBlock(t *testing.T) {
	// Flush between chunks so every chunk starts a block; record both the
	// block-aligned offset and an intra-block offset inside each chunk.
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 0)
	chunks := [][]byte{
		[]byte("alpha block payload 00"),
		[]byte("beta block payload 111"),
		[]byte("gamma block payload 22"),
		[]byte("delta block payload 33"),
	}
	var offsets []VOffset
	for _, c := range chunks {
		offsets = append(offsets, w.Offset())
		if _, err := w.Write(c); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	const intra = 6
	for name, open := range readerModes {
		t.Run(name, func(t *testing.T) {
			src := open(bytes.NewReader(raw))
			defer closeSource(t, src)
			for round := 0; round < 3; round++ {
				for i := len(chunks) - 1; i >= 0; i-- {
					if err := src.Seek(offsets[i]); err != nil {
						t.Fatalf("round %d: Seek(%v): %v", round, offsets[i], err)
					}
					blk, off, err := src.NextBlock()
					if err != nil {
						t.Fatalf("round %d: NextBlock after Seek: %v", round, err)
					}
					if off != offsets[i] {
						t.Fatalf("round %d chunk %d: NextBlock off = %v, want %v", round, i, off, offsets[i])
					}
					if !bytes.HasPrefix(blk, chunks[i]) {
						t.Fatalf("round %d chunk %d: block %q does not start with %q", round, i, blk, chunks[i])
					}
					src.Recycle(blk)

					// Intra-block: seek into the middle of the same chunk.
					at := MakeVOffset(offsets[i].Block(), intra)
					if err := src.Seek(at); err != nil {
						t.Fatalf("round %d: Seek(%v): %v", round, at, err)
					}
					blk, off, err = src.NextBlock()
					if err != nil {
						t.Fatalf("round %d: NextBlock after intra Seek: %v", round, err)
					}
					if off != at {
						t.Fatalf("round %d chunk %d: intra off = %v, want %v", round, i, off, at)
					}
					if !bytes.HasPrefix(blk, chunks[i][intra:]) {
						t.Fatalf("round %d chunk %d: intra block %q, want prefix %q", round, i, blk, chunks[i][intra:])
					}
					src.Recycle(blk)
				}
			}
		})
	}
}
