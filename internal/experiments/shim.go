package experiments

import (
	"io"
	"os"

	"parseq/internal/bam"
	"parseq/internal/conv"
	"parseq/internal/sam"
)

// convertBAMAdapted is conv.ConvertBAMSequential with the pipeline
// structure the paper's BAM format converter inherits from BamTools: the
// third-party library materialises its own per-alignment memory object,
// and an adaptation step copies that object into the converter's
// alignment object before the user program can run. The paper measures
// this double-materialisation as the ~30% sequential deficit against
// Picard in Table I; Table I's "no preprocessing" BAM→SAM row runs
// through this shim so it reproduces the effect rather than accidentally
// fixing it. The product's one-rank BAM conversion decodes straight into
// the converter's record and never sees it.
func convertBAMAdapted(bamPath string, opts conv.Options) (*conv.Result, error) {
	f, err := os.Open(bamPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := bam.NewReader(f, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return nil, err
	}
	defer br.Close()
	var scratch sam.Record // the "BamTools memory object"
	next := func(rec *sam.Record) (bool, error) {
		if err := br.ReadInto(&scratch); err != nil {
			if err == io.EOF {
				err = nil
			}
			return false, err
		}
		adaptAlignment(rec, &scratch)
		return true, nil
	}
	return conv.ConvertStream(br.Header(), next, func() int64 {
		off, _ := f.Seek(0, io.SeekCurrent)
		return off
	}, opts)
}

// adaptAlignment deep-copies the library object into the converter's
// alignment object, field by field, as the BamTools-to-runtime adaptation
// the paper describes.
func adaptAlignment(dst, src *sam.Record) {
	dst.QName = cloneString(src.QName)
	dst.Flag = src.Flag
	dst.RName = cloneString(src.RName)
	dst.Pos = src.Pos
	dst.MapQ = src.MapQ
	dst.Cigar = append(dst.Cigar[:0], src.Cigar...)
	dst.RNext = cloneString(src.RNext)
	dst.PNext = src.PNext
	dst.TLen = src.TLen
	dst.Seq = cloneString(src.Seq)
	dst.Qual = cloneString(src.Qual)
	dst.Tags = dst.Tags[:0]
	for _, t := range src.Tags {
		dst.Tags = append(dst.Tags, sam.Tag{
			Name:  t.Name,
			Type:  t.Type,
			Value: cloneString(t.Value),
		})
	}
}

// cloneString forces a copy, defeating Go's string sharing the way a
// cross-library object adaptation in C++ would.
func cloneString(s string) string {
	return string(append([]byte(nil), s...))
}
