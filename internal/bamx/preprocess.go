package bamx

import (
	"encoding/binary"
	"io"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// PreprocessBAM is the sequential preprocessing phase of the paper's BAM
// format converter: it reads a BAM stream twice (the format offers no
// record delimiters, so this pass cannot be parallelised — exactly the
// paper's Section III-B observation), writing a fixed-stride BAMX file
// and returning the BAIX index.
//
// Pass one measures the maximum field sizes; pass two pads every record
// to those capacities. The BAM bodies are relocated without decoding —
// field lengths live in the record prefix.
func PreprocessBAM(rs io.ReadSeeker, w io.Writer) (*Index, error) {
	return PreprocessBAMWorkers(rs, w, 0)
}

// PreprocessBAMWorkers is PreprocessBAM with the BGZF inflate side
// running on codecWorkers goroutines (0 selects the adaptive default,
// bgzf.AutoWorkers; 1 forces the sequential codec). The record scan
// itself stays sequential — the paper's constraint is on record
// delimitation, not block decompression, so the codec is the one layer
// that can be parallelised under it. Both passes walk the stream
// through the zero-copy block scanner, so record bytes are never copied
// out of the inflated blocks except at block boundaries; the emitted
// BAMX bytes and BAIX index are bit-identical for every worker count.
func PreprocessBAMWorkers(rs io.ReadSeeker, w io.Writer, codecWorkers int) (*Index, error) {
	if codecWorkers <= 0 {
		codecWorkers = bgzf.AutoWorkers()
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}

	// Pass 1: measure capacities.
	br, err := bam.NewReader(rs, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return nil, err
	}
	var caps Caps
	caps.QName = 2 // room for the "*" placeholder name
	caps.Seq = 1
	sc := bam.NewBodyScanner(br)
	for {
		body, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			br.Close()
			return nil, err
		}
		caps.Observe(body)
	}
	if err := br.Close(); err != nil {
		return nil, err
	}

	// Pass 2: relocate records into the padded layout.
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, err
	}
	br, err = bam.NewReader(rs, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return nil, err
	}
	defer br.Close()
	bw, err := NewWriter(w, br.Header(), caps)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	sc = bam.NewBodyScanner(br)
	for {
		body, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		refID := int32(binary.LittleEndian.Uint32(body[0:]))
		pos := int32(binary.LittleEndian.Uint32(body[4:])) + 1
		idx := bw.Count()
		if err := bw.WriteEncoded(body); err != nil {
			return nil, err
		}
		if refID >= 0 {
			entries = append(entries, Entry{RefID: refID, Pos: pos, Index: idx})
		}
	}
	return NewIndex(entries), nil
}

// BuildFromRecords writes a BAMX file plus BAIX index for in-memory
// records — the building block of the preprocessing-optimized SAM
// converter, where each rank turns its text partition into one BAMX file.
// The two passes of PreprocessBAM become one measurement sweep over the
// encoded bodies and one padded write.
func BuildFromRecords(w io.Writer, h *sam.Header, recs []sam.Record) (*Index, error) {
	caps := Caps{QName: 2, Seq: 1}
	bodies := make([][]byte, 0, len(recs))
	for i := range recs {
		body, err := bam.EncodeRecord(nil, &recs[i], h)
		if err != nil {
			return nil, err
		}
		body = body[4:] // drop the block_size prefix
		caps.Observe(body)
		bodies = append(bodies, body)
	}
	bw, err := NewWriter(w, h, caps)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for i, body := range bodies {
		refID := h.RefID(recs[i].RName)
		if refID >= 0 {
			entries = append(entries, Entry{RefID: int32(refID), Pos: recs[i].Pos, Index: bw.Count()})
		}
		if err := bw.WriteEncoded(body); err != nil {
			return nil, err
		}
	}
	return NewIndex(entries), nil
}

// BuildIndex scans an existing BAMX file and reconstructs its BAIX index,
// for when the sidecar index is missing.
func BuildIndex(f *File) (*Index, error) {
	var entries []Entry
	sc := f.Scan(0, f.NumRecords())
	for i := int64(0); ; i++ {
		raw, err := sc.NextRaw()
		if err == io.EOF {
			return NewIndex(entries), nil
		}
		if err != nil {
			return nil, err
		}
		refID := int32(binary.LittleEndian.Uint32(raw[0:]))
		pos := int32(binary.LittleEndian.Uint32(raw[4:])) + 1
		if refID >= 0 {
			entries = append(entries, Entry{RefID: refID, Pos: pos, Index: i})
		}
	}
}
