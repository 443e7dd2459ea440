package bgzf

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func compress(t testing.TB, data []byte, payload int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, payload)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripSmall(t *testing.T) {
	data := []byte("hello, bgzf world")
	got, err := io.ReadAll(NewReader(bytes.NewReader(compress(t, data, 0))))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	raw := compress(t, nil, 0)
	if len(raw) != len(eofMarker) {
		t.Errorf("empty file = %d bytes, want just the EOF marker (%d)", len(raw), len(eofMarker))
	}
	got, err := io.ReadAll(NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d bytes, want 0", len(got))
	}
}

func TestRoundTripMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*MaxPayload+777)
	for i := range data {
		data[i] = byte(rng.Intn(8)) // compressible
	}
	got, err := io.ReadAll(NewReader(bytes.NewReader(compress(t, data, 0))))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("multi-block round trip mismatch")
	}
}

func TestRoundTripIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 2*MaxPayload)
	rng.Read(data)
	got, err := io.ReadAll(NewReader(bytes.NewReader(compress(t, data, 0))))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("incompressible round trip mismatch")
	}
}

func TestSmallPayloadBlocks(t *testing.T) {
	data := bytes.Repeat([]byte("ACGT"), 4096)
	raw := compress(t, data, 512)
	got, err := io.ReadAll(NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("small-payload round trip mismatch")
	}
}

func TestGzipCompatible(t *testing.T) {
	// Every BGZF file is a valid multi-member gzip file.
	data := bytes.Repeat([]byte("interop"), 40000)
	gz, err := gzip.NewReader(bytes.NewReader(compress(t, data, 0)))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	got, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("gzip ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("gzip interop mismatch")
	}
}

func TestMissingEOFMarker(t *testing.T) {
	raw := compress(t, []byte("data"), 0)
	truncated := raw[:len(raw)-len(eofMarker)]
	_, err := io.ReadAll(NewReader(bytes.NewReader(truncated)))
	if !errors.Is(err, ErrNoEOFMarker) {
		t.Errorf("err = %v, want ErrNoEOFMarker", err)
	}
}

func TestCorruptCRC(t *testing.T) {
	raw := compress(t, []byte("payload payload payload"), 0)
	// Flip a bit in the stored CRC of the first block (footer sits just
	// before the EOF marker).
	raw[len(raw)-len(eofMarker)-8] ^= 0xff
	_, err := io.ReadAll(NewReader(bytes.NewReader(raw)))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestNotBGZF(t *testing.T) {
	// A plain gzip stream (no FEXTRA) is rejected.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("plain gzip"))
	gz.Close()
	_, err := io.ReadAll(NewReader(bytes.NewReader(buf.Bytes())))
	if !errors.Is(err, ErrNotBGZF) {
		t.Errorf("err = %v, want ErrNotBGZF", err)
	}
}

func TestGarbageInput(t *testing.T) {
	_, err := io.ReadAll(NewReader(bytes.NewReader([]byte("this is not gzip at all, definitely"))))
	if err == nil {
		t.Error("reading garbage succeeded")
	}
}

func TestVOffsetPacking(t *testing.T) {
	v := MakeVOffset(0x123456789a, 0xbcde)
	if v.Block() != 0x123456789a {
		t.Errorf("Block = %#x", v.Block())
	}
	if v.Intra() != 0xbcde {
		t.Errorf("Intra = %#x", v.Intra())
	}
	if v.String() != "78187493530:48350" {
		t.Errorf("String = %q", v.String())
	}
}

func TestVOffsetProperty(t *testing.T) {
	f := func(block int64, intra uint16) bool {
		if block < 0 {
			block = -block
		}
		block &= 1<<47 - 1
		v := MakeVOffset(block, int(intra))
		return v.Block() == block && v.Intra() == int(intra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeek(t *testing.T) {
	// Three known blocks; record the writer offset at each write.
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 16)
	var offsets []VOffset
	chunks := [][]byte{
		[]byte("first block data"), // exactly one block
		[]byte("second chunk!!!!"),
		[]byte("third and last.."),
	}
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

	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i := len(chunks) - 1; i >= 0; i-- {
		if err := r.Seek(offsets[i]); err != nil {
			t.Fatalf("Seek(%v): %v", offsets[i], err)
		}
		got := make([]byte, len(chunks[i]))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("read after seek: %v", err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Errorf("chunk %d after seek = %q, want %q", i, got, chunks[i])
		}
	}
}

func TestSeekIntraBlock(t *testing.T) {
	data := []byte("0123456789abcdef0123456789abcdef")
	raw := compress(t, data, 0)
	r := NewReader(bytes.NewReader(raw))
	if err := r.Seek(MakeVOffset(0, 10)); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data[10:]) {
		t.Errorf("after intra seek = %q, want %q", got, data[10:])
	}
}

func TestSeekUnseekable(t *testing.T) {
	raw := compress(t, []byte("x"), 0)
	r := NewReader(io.MultiReader(bytes.NewReader(raw))) // hides ReadSeeker
	if err := r.Seek(0); err == nil {
		t.Error("Seek on unseekable reader succeeded")
	}
}

func TestSeekBeyondBlock(t *testing.T) {
	raw := compress(t, []byte("tiny"), 0)
	r := NewReader(bytes.NewReader(raw))
	if err := r.Seek(MakeVOffset(0, 100)); err == nil {
		t.Error("Seek beyond block succeeded")
	}
}

// seekFailer is a bytes.Reader whose Seek fails while fail is set.
type seekFailer struct {
	*bytes.Reader
	fail bool
}

func (s *seekFailer) Seek(off int64, whence int) (int64, error) {
	if s.fail {
		return 0, errors.New("seek refused")
	}
	return s.Reader.Seek(off, whence)
}

// A failed Seek is sticky in both modes: Read and NextBlock report an
// error — never bytes from wherever the reader happened to be — until a
// later Seek lands, which must then read correctly.
func TestFailedSeekIsSticky(t *testing.T) {
	const payload = 16384
	data := testData(2*payload, 61)
	var buf bytes.Buffer
	w := NewWriterSize(&buf, payload)
	w.Write(data[:payload])
	w.Flush()
	second := w.Offset().Block()
	w.Write(data[payload:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := []struct {
		name      string
		at        VOffset
		seekFails bool
	}{
		{"intra offset past the block", MakeVOffset(0, 20000), false},
		{"underlying Seek fails", MakeVOffset(second, 0), true},
		{"offset past the EOF marker", MakeVOffset(int64(len(raw))+100, 0), false},
	}
	for _, tc := range cases {
		for mode, open := range readerModes {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				src := &seekFailer{Reader: bytes.NewReader(raw)}
				r := open(src)
				defer r.Close()
				head := make([]byte, 10)
				if _, err := io.ReadFull(r, head); err != nil {
					t.Fatal(err)
				}
				src.fail = tc.seekFails
				if err := r.Seek(tc.at); err == nil {
					t.Fatalf("Seek(%v) succeeded", tc.at)
				}
				src.fail = false
				if n, err := r.Read(head); err == nil {
					t.Errorf("Read after a failed Seek = %q, nil", head[:n])
				}
				if blk, off, err := r.NextBlock(); err == nil {
					t.Errorf("NextBlock after a failed Seek = %d bytes at %v, nil", len(blk), off)
				}
				if err := r.Seek(MakeVOffset(second, 100)); err != nil {
					t.Fatalf("good Seek after a failed one: %v", err)
				}
				got := make([]byte, 1000)
				if _, err := io.ReadFull(r, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data[payload+100:payload+1100]) {
					t.Error("good Seek after a failed one reads the wrong bytes")
				}
			})
		}
	}
}

func TestReaderOffsetTracksBlocks(t *testing.T) {
	data := bytes.Repeat([]byte("z"), 40)
	raw := compress(t, data, 16)
	r := NewReader(bytes.NewReader(raw))
	if got := r.Offset(); got != 0 {
		t.Errorf("initial Offset = %v", got)
	}
	buf := make([]byte, 20)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	// 20 bytes into 16-byte-payload blocks: inside the second block at 4.
	if got := r.Offset(); got.Intra() != 4 {
		t.Errorf("Offset after 20 bytes = %v, want intra 4", got)
	}
}

func TestWriterRejectsUseAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); err == nil {
		t.Error("Write after Close succeeded")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, payloadSeed uint16) bool {
		payload := int(payloadSeed)%4096 + 1
		raw := compress(t, data, payload)
		got, err := io.ReadAll(NewReader(bytes.NewReader(raw)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Mutated BGZF streams must error out, never panic — the BC size field
// and deflate payloads are untrusted.
func TestReaderNeverPanicsOnMutations(t *testing.T) {
	data := bytes.Repeat([]byte("mutation fodder "), 600)
	raw := compress(t, data, 1024)
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		mutated := append([]byte(nil), raw...)
		switch rng.Intn(2) {
		case 0:
			for m := 0; m <= rng.Intn(6); m++ {
				mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
			}
		case 1:
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		_, _ = io.Copy(io.Discard, NewReader(bytes.NewReader(mutated)))
	}
}
