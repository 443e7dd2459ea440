package bam_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/simdata"
)

// TestIndexFileBytes pins the .bai WriteIndexFile writes for the
// generator's default datasets: the record cursor's offsets, chunk
// starts and ends both, must be the ones the copying reader reported.
func TestIndexFileBytes(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{100, "873417cedf7a5424ee34f7180ef714bd7f7e0701edb1abcd193bda5f8c6fbb45"},
		{4000, "8a2b2d096b4bf889c0505f5c186f91278c1d5226939a296e8272816d5f383eca"},
		{40000, "024a93534dd58ec9859366ff93d23c632ef1488239451af8f9827a264e1a623d"},
	} {
		var raw, bai bytes.Buffer
		if err := simdata.Generate(simdata.DefaultConfig(c.n)).WriteBAM(&raw); err != nil {
			t.Fatal(err)
		}
		if err := bam.WriteIndexFile(bytes.NewReader(raw.Bytes()), &bai); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(bai.Bytes())); got != c.want {
			t.Errorf("%d reads: .bai SHA-256 %s, want %s", c.n, got, c.want)
		}
	}
}
