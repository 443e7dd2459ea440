package bamx

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// baixMagic identifies a BAIX index file.
var baixMagic = []byte{'B', 'A', 'I', 'X', 1}

// Entry is one BAIX index entry: the starting position of an alignment
// and the physical index of its record in the BAMX file (the paper's
// Figure 4, extended with the reference ID so multi-chromosome files can
// be region-queried).
type Entry struct {
	RefID int32 // reference ID; unmapped records are not indexed
	Pos   int32 // 1-based starting position
	Index int64 // record index in the BAMX file
}

// Index is a BAIX index: entries sorted by (RefID, Pos).
type Index struct {
	entries []Entry
}

// NewIndex builds an index from entries, sorting them into BAIX order in
// place: the index takes the slice over, and the caller must not use it
// again. Ties on (RefID, Pos) are broken on Index, so the order, and the
// BAIX bytes, do not depend on the order entries arrive in.
func NewIndex(entries []Entry) *Index {
	slices.SortFunc(entries, func(a, b Entry) int {
		if a.RefID != b.RefID {
			return cmp.Compare(a.RefID, b.RefID)
		}
		if a.Pos != b.Pos {
			return cmp.Compare(a.Pos, b.Pos)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return &Index{entries: entries}
}

// appendEntry appends record i's entry, read from the BAM fixed section
// that opens a body and a padded record alike; an unplaced record has none.
func appendEntry(entries []Entry, fixed []byte, i int64) []Entry {
	if refID := int32(binary.LittleEndian.Uint32(fixed)); refID >= 0 {
		return append(entries, Entry{RefID: refID, Pos: int32(binary.LittleEndian.Uint32(fixed[4:])) + 1, Index: i})
	}
	return entries
}

// Len returns the number of indexed alignments.
func (ix *Index) Len() int { return len(ix.entries) }

// Entries exposes the sorted entries (read-only by convention).
func (ix *Index) Entries() []Entry { return ix.entries }

// Region returns the half-open range [lo, hi) of index positions whose
// alignments start within [begPos, endPos] (1-based, inclusive) on refID.
// This is the paper's partial-conversion lookup: two binary searches over
// the sorted starting positions. Slicing Entries()[lo:hi] and dividing it
// equally among processors is the "BAIX region" partitioning.
func (ix *Index) Region(refID int32, begPos, endPos int32) (lo, hi int) {
	lo = sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		return e.RefID > refID || (e.RefID == refID && e.Pos >= begPos)
	})
	hi = sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		return e.RefID > refID || (e.RefID == refID && e.Pos > endPos)
	})
	return lo, hi
}

// RefRange returns the half-open range of index positions on refID — a
// whole-chromosome query.
func (ix *Index) RefRange(refID int32) (lo, hi int) {
	lo = sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].RefID >= refID
	})
	hi = sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].RefID > refID
	})
	return lo, hi
}

// WriteTo serialises the index in the BAIX file format: magic, entry
// count, then 16 bytes per entry.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, len(baixMagic)+8+16*len(ix.entries))
	buf = append(buf, baixMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ix.entries)))
	for _, e := range ix.entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.RefID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Pos))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Index))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadIndex parses a BAIX stream. Callers holding a path load it with
// one sized read (os.ReadFile) and call ParseIndex.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseIndex(data)
}

// ParseIndex parses the bytes of a BAIX file.
func ParseIndex(data []byte) (*Index, error) {
	if len(data) < len(baixMagic)+8 || string(data[:len(baixMagic)]) != string(baixMagic) {
		return nil, errors.New("bamx: bad BAIX magic")
	}
	count := binary.LittleEndian.Uint64(data[len(baixMagic):])
	// count is untrusted: bound it by the bytes present before the
	// proportional allocation (guards both OOM and int overflow).
	avail := uint64(len(data)-len(baixMagic)-8) / 16
	if count > avail {
		return nil, fmt.Errorf("%w: BAIX declares %d entries, data holds %d", ErrCorrupt, count, avail)
	}
	entries := make([]Entry, count)
	off := len(baixMagic) + 8
	for i := range entries {
		entries[i] = Entry{
			RefID: int32(binary.LittleEndian.Uint32(data[off:])),
			Pos:   int32(binary.LittleEndian.Uint32(data[off+4:])),
			Index: int64(binary.LittleEndian.Uint64(data[off+8:])),
		}
		off += 16
	}
	// Trust but verify sortedness; Region depends on it.
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.RefID > b.RefID || (a.RefID == b.RefID && a.Pos > b.Pos) {
			return nil, fmt.Errorf("%w: BAIX entries out of order at %d", ErrCorrupt, i)
		}
	}
	return &Index{entries: entries}, nil
}
