package pamx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/sam"
)

// FromBAM converts a BAM file into PAMX at pamxPath, streaming record
// bodies straight into the column splitter without decoding. The inflate
// side follows CodecWorkers like the write side. Returns the record
// count.
func FromBAM(bamPath, pamxPath string, opts Options) (int64, error) {
	in, err := os.Open(bamPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	br, err := bam.NewReader(bufio.NewReaderSize(in, 1<<20), bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return 0, err
	}
	defer br.Close()
	return writePAMX(pamxPath, br.Header(), opts, br.ReadBody)
}

// FromBAMX converts a fixed-stride BAMX file into PAMX, reassembling
// each record body from its padded slot.
func FromBAMX(bamxPath, pamxPath string, opts Options) (int64, error) {
	in, err := os.Open(bamxPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return 0, err
	}
	xf, err := bamx.Open(in, st.Size())
	if err != nil {
		return 0, err
	}
	return writePAMX(pamxPath, xf.Header(), opts, xf.Scan(0, xf.NumRecords()).NextBody)
}

// writePAMX drains next — record bodies until io.EOF — into a Writer on a
// fresh file at path. The Writer is closed on every path, which joins
// its flush stage, before the file is closed; a failed conversion leaves
// no file behind.
func writePAMX(path string, h *sam.Header, opts Options, next func() ([]byte, error)) (int64, error) {
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w, err := NewWriter(bw, h, opts)
	if err == nil {
		err = func() error {
			for {
				body, err := next()
				if err == io.EOF {
					return nil
				}
				if err == nil {
					err = w.WriteBody(body)
				}
				if err != nil {
					return err
				}
			}
		}()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return w.Count(), nil
}

// ToBAM converts a PAMX file back into BAM at bamPath with the full
// projection — the return leg of the byte-identity round-trip contract.
// The BAM deflate follows CodecWorkers.
func ToBAM(pamxPath, bamPath string, opts Options) (int64, error) {
	pf, err := OpenPath(pamxPath)
	if err != nil {
		return 0, err
	}
	defer pf.Close()
	out, err := os.Create(bamPath)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w, err := bam.NewWriter(bw, pf.Header(), bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		out.Close()
		os.Remove(bamPath)
		return 0, err
	}
	var count int64
	var rec []byte
	err = func() error {
		for i := 0; i < pf.NumGroups(); i++ {
			gr, err := pf.NewGroupReader(i, FieldAll)
			if err != nil {
				return err
			}
			for {
				body, err := gr.NextBody()
				if err == io.EOF {
					break
				}
				if err != nil {
					gr.Close()
					return err
				}
				rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(body)))
				rec = append(rec, body...)
				if err := w.WriteEncoded(rec); err != nil {
					gr.Close()
					return err
				}
				count++
			}
			gr.Close()
		}
		return nil
	}()
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(bamPath)
		return 0, err
	}
	if want := pf.NumRecords(); count != want {
		return count, fmt.Errorf("%w: footer declares %d records, read %d", ErrCorrupt, want, count)
	}
	return count, nil
}
