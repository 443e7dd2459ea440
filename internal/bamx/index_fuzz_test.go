package bamx

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// FuzzBAIXParse hardens the BAIX decoder and the walk it feeds:
// arbitrary bytes must be a structured error or an index that
// re-serialises byte-for-byte, and ScanEntries over a matching file
// must then read every entry or reject one as out of range — never
// panic, never read outside the data.
func FuzzBAIXParse(f *testing.F) {
	d := dataset(f, 50)
	xf, idx := buildBAMX(f, d)
	serialise := func(count uint64, entries ...Entry) []byte {
		var buf bytes.Buffer
		(&Index{entries: entries}).WriteTo(&buf)
		data := buf.Bytes()
		binary.LittleEndian.PutUint64(data[len(baixMagic):], count)
		return data
	}
	var valid bytes.Buffer
	if _, err := idx.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(serialise(3, Entry{Pos: 1}))                                      // declared count > bytes present
	f.Add(serialise(2, Entry{Pos: 50}, Entry{Pos: 10, Index: 1}))           // unsorted
	f.Add(serialise(2, Entry{Pos: 1, Index: -1}, Entry{Pos: 2}))            // negative Index
	f.Add(serialise(2, Entry{Pos: 1, Index: 49}, Entry{Pos: 2, Index: 50})) // run past the end
	f.Add([]byte("BAIX\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ParseIndex(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("accepted index does not re-serialise to the bytes it was parsed from")
		}
		sc := xf.ScanEntries(ix.Entries())
		n := 0
		for ; err == nil; n++ {
			_, err = sc.NextBody()
		}
		if err == io.EOF && n-1 == ix.Len() {
			return
		}
		if err == io.EOF || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("walk of %d entries ended after %d with %v", ix.Len(), n-1, err)
		}
	})
}
