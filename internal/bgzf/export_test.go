package bgzf

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"testing"
)

// What the external tests (package bgzf_test: they import simdata, which
// imports this package) need from inside.

// DeflateCases is the encoder's correctness table.
var DeflateCases = deflateCases

// NewRawDeflate returns the bare encoder — no BGZF wrapping — at a chosen
// chain depth, for the frontier table; production runs at maxChain only.
func NewRawDeflate(chain int) func(dst, p []byte) []byte {
	e := new(deflator)
	return func(dst, p []byte) []byte {
		e.plan(p, chain)
		return e.emit(dst[:0], p)
	}
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
