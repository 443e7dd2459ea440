package bamx

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func buildCompressed(t testing.TB, d *simdata.Dataset, recsPerBlock int) (*CompressedFile, int) {
	t.Helper()
	var buf bytes.Buffer
	// Derive caps through the plain builder, then compress record stream.
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	pf, err := Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompressBAMXWorkers(pf, &buf, recsPerBlock, 0); err != nil {
		t.Fatalf("CompressBAMX: %v", err)
	}
	cf, err := OpenCompressed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("OpenCompressed: %v", err)
	}
	return cf, buf.Len()
}

func TestCompressedRoundTrip(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(300))
	cf, _ := buildCompressed(t, d, 64)
	if cf.NumRecords() != 300 {
		t.Fatalf("NumRecords = %d", cf.NumRecords())
	}
	wantBlocks := (300 + 63) / 64
	if cf.NumBlocks() != wantBlocks {
		t.Fatalf("NumBlocks = %d, want %d", cf.NumBlocks(), wantBlocks)
	}
	var rec sam.Record
	// Out-of-order access exercises the block cache and reloads.
	for _, i := range []int64{299, 0, 150, 1, 64, 63, 298, 65} {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Errorf("record %d differs after compression round trip", i)
		}
	}
	// Sequential full sweep.
	for i := int64(0); i < cf.NumRecords(); i++ {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("sweep ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("sweep record %d differs", i)
		}
	}
}

func TestCompressedSmallerThanPlain(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(500))
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	_, compSize := buildCompressed(t, d, DefaultRecsPerBlock)
	if compSize >= plain.Len() {
		t.Errorf("compressed %d bytes not smaller than plain %d", compSize, plain.Len())
	}
	t.Logf("plain %d bytes → compressed %d bytes (%.1f%%)",
		plain.Len(), compSize, 100*float64(compSize)/float64(plain.Len()))
}

func TestCompressedWriterDirect(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(100))
	// Caps measured over encoded bodies, as BuildFromRecords does.
	caps := Caps{QName: 2, Seq: 1}
	var bodies [][]byte
	for i := range d.Records {
		body, err := encodeBody(d.Header, &d.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		caps.Observe(body)
		bodies = append(bodies, body)
	}
	var buf bytes.Buffer
	w, err := NewCompressedWriterWorkers(&buf, d.Header, caps, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		if err := w.Write(&d.Records[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if w.Count() != 100 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("double Close succeeded")
	}
	_ = bodies
	cf, err := OpenCompressed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var rec sam.Record
	if err := cf.ReadRecord(99, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.String() != d.Records[99].String() {
		t.Error("last record differs")
	}
}

func TestCompressedEmptyFile(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 100})
	var buf bytes.Buffer
	w, err := NewCompressedWriterWorkers(&buf, h, Caps{QName: 8, Seq: 8}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompressed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("OpenCompressed(empty): %v", err)
	}
	if cf.NumRecords() != 0 || cf.NumBlocks() != 0 {
		t.Errorf("empty file: %d records, %d blocks", cf.NumRecords(), cf.NumBlocks())
	}
	var rec sam.Record
	if err := cf.ReadRecord(0, &rec); err == nil {
		t.Error("ReadRecord on empty file succeeded")
	}
}

func TestOpenCompressedRejectsCorruption(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(50))
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	pf, err := Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressBAMXWorkers(pf, &buf, 16, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := OpenCompressed(bytes.NewReader([]byte("junk")), 4); !errors.Is(err, ErrNotBAMX) {
		t.Errorf("garbage: %v", err)
	}
	// Truncated footer.
	if _, err := OpenCompressed(bytes.NewReader(raw[:len(raw)-3]), int64(len(raw)-3)); err == nil {
		t.Error("truncated footer accepted")
	}
	// Plain BAMX magic is rejected here (and vice versa).
	if _, err := OpenCompressed(bytes.NewReader(plain.Bytes()), int64(plain.Len())); !errors.Is(err, ErrNotBAMX) {
		t.Errorf("plain BAMX accepted by OpenCompressed: %v", err)
	}
	if _, err := Open(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrNotBAMX) {
		t.Errorf("compressed BAMX accepted by Open: %v", err)
	}
	// Corrupt a data byte inside the first block.
	bad := append([]byte(nil), raw...)
	bad[400] ^= 0xff
	cf, err := OpenCompressed(bytes.NewReader(bad), int64(len(bad)))
	if err == nil {
		var rec sam.Record
		failed := false
		for i := int64(0); i < cf.NumRecords(); i++ {
			if err := cf.ReadRecord(i, &rec); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			t.Log("bit flip survived decode (flate may tolerate it); acceptable")
		}
	}
}

func TestCompressedWriterRejectsDegenerateCaps(t *testing.T) {
	h := sam.NewHeader()
	if _, err := NewCompressedWriterWorkers(&bytes.Buffer{}, h, Caps{}, 4, 0); err == nil {
		t.Error("degenerate caps accepted")
	}
}

// encodeBody is a test helper producing a BAM record body.
func encodeBody(h *sam.Header, rec *sam.Record) ([]byte, error) {
	body, err := bamEncode(h, rec)
	if err != nil {
		return nil, err
	}
	return body, nil
}

// bamEncode wraps bam.EncodeRecord for the test helpers.
func bamEncode(h *sam.Header, rec *sam.Record) ([]byte, error) {
	body, err := bam.EncodeRecord(nil, rec, h)
	if err != nil {
		return nil, err
	}
	return body[4:], nil
}

// Mutated index and compressed files must error, never panic or OOM —
// the counts in both come from untrusted input.
func TestReadIndexNeverPanicsOnMutations(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(100))
	_, idx := buildBAMX(t, d)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3000; trial++ {
		mutated := append([]byte(nil), raw...)
		switch rng.Intn(2) {
		case 0:
			for m := 0; m <= rng.Intn(4); m++ {
				mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
			}
		case 1:
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		if got, err := ReadIndex(bytes.NewReader(mutated)); err == nil {
			_, _ = got.Region(0, 1, 1<<30)
		}
	}
}

func TestOpenCompressedNeverPanicsOnMutations(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(100))
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	pf, err := Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressBAMXWorkers(pf, &buf, 16, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(32))
	var rec sam.Record
	for trial := 0; trial < 1500; trial++ {
		mutated := append([]byte(nil), raw...)
		switch rng.Intn(2) {
		case 0:
			for m := 0; m <= rng.Intn(6); m++ {
				mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
			}
		case 1:
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		cf, err := OpenCompressed(bytes.NewReader(mutated), int64(len(mutated)))
		if err != nil {
			continue
		}
		limit := cf.NumRecords()
		if limit > 50 {
			limit = 50
		}
		for i := int64(0); i < limit; i++ {
			if err := cf.ReadRecord(i, &rec); err != nil {
				break
			}
		}
	}
}

func TestOpenNeverPanicsOnMutations(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(60))
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	raw := plain.Bytes()
	rng := rand.New(rand.NewSource(33))
	var rec sam.Record
	for trial := 0; trial < 1500; trial++ {
		mutated := append([]byte(nil), raw...)
		for m := 0; m <= rng.Intn(6); m++ {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		f, err := Open(bytes.NewReader(mutated), int64(len(mutated)))
		if err != nil {
			continue
		}
		limit := f.NumRecords()
		if limit > 50 {
			limit = 50
		}
		for i := int64(0); i < limit; i++ {
			if err := f.ReadRecord(i, &rec); err != nil {
				break
			}
		}
	}
}

// Routing BAMZ deflate through the shared bgzf pool must not change a
// byte: blocks retire in submission order and flate at a fixed level is
// deterministic, so sequential and shared-pool outputs are identical
// (and the parallel output opens and reads back cleanly).
func TestCompressedWorkersByteIdentity(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(400))
	var plain bytes.Buffer
	if _, err := BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	var outputs [][]byte
	for _, workers := range []int{0, 2, 4} {
		pf, err := Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := CompressBAMXWorkers(pf, &buf, 64, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != 400 {
			t.Fatalf("workers=%d: count = %d", workers, n)
		}
		outputs = append(outputs, append([]byte(nil), buf.Bytes()...))
	}
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[i], outputs[0]) {
			t.Errorf("parallel output %d differs from sequential (%d vs %d bytes)",
				i, len(outputs[i]), len(outputs[0]))
		}
	}
	cf, err := OpenCompressed(bytes.NewReader(outputs[2]), int64(len(outputs[2])))
	if err != nil {
		t.Fatalf("OpenCompressed on shared-pool output: %v", err)
	}
	var rec sam.Record
	for _, i := range []int64{0, 63, 64, 399} {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Errorf("record %d differs after shared-pool compression", i)
		}
	}
}
