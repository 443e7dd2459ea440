package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strconv"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/bgzf"
	"parseq/internal/flagstat"
	"parseq/internal/formats"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/kern"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// Layer probes over records and byte streams: sam, kern, formats, bgzf,
// bam, bamx, pamx, and the per-record kernels of flagstat and hist. A
// per-record probe is one span around a loop of the public call over
// the whole dataset; its metric divides by the record count.

func perRec(seconds float64, n int) float64 { return seconds * 1e9 / float64(n) }

func mbPerS(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

func recCounts(n, in, out int) map[string]float64 {
	return map[string]float64{"records": float64(n), "bytes_in": float64(in), "bytes_out": float64(out)}
}

// probeRecords covers partition, sam, kern and formats: the text side.
func probeRecords(p *probes, d *probeData) {
	text, err := os.ReadFile(d.in.sam)
	if !p.t.op("read "+d.in.sam, err) {
		return
	}
	recs, h := d.ds.Records, d.ds.Header
	n := len(recs)
	dataStart := int64(len(h.String()))

	const splits = 200
	s := p.span("partition.split", "partition", func() (map[string]float64, error) {
		r := bytes.NewReader(text)
		for i := 0; i < splits; i++ {
			if _, err := partition.SAMForward(r, dataStart, int64(len(text)), p.e.ranks); err != nil {
				return nil, err
			}
		}
		return map[string]float64{"calls": splits}, nil
	})
	p.set("partition.split_us", s*1e6/splits)

	// The line and field scans every text-side journey starts with.
	body := text[dataStart:]
	s = p.span("kern.scan", "kern", func() (map[string]float64, error) {
		lines := kern.CountByte(body, '\n')
		if lines != n {
			return nil, errors.New("kern.CountByte: " + strconv.Itoa(lines) + " lines for " + strconv.Itoa(n) + " records")
		}
		var cuts []int
		for rest := body; len(rest) > 0; {
			eol := kern.IndexByte(rest, '\n')
			cuts = kern.IndexAll(cuts[:0], rest[:eol], '\t')
			rest = rest[eol+1:]
		}
		return recCounts(n, 2*len(body), 0), nil
	})
	p.set("kern.scan_mb_s", mbPerS(2*len(body), s))

	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	s = p.span("sam.parse", "sam", func() (map[string]float64, error) {
		var rec sam.Record
		for _, line := range lines {
			if err := sam.ParseRecordIntoBytes(&rec, line); err != nil {
				return nil, err
			}
		}
		return recCounts(len(lines), len(body), 0), nil
	})
	p.set("sam.parse_ns_per_rec", perRec(s, n))

	var buf []byte
	s = p.span("sam.format", "sam", func() (map[string]float64, error) {
		out := 0
		for i := range recs {
			buf = recs[i].AppendTo(buf[:0])
			out += len(buf)
		}
		return recCounts(n, 0, out), nil
	})
	p.set("sam.format_ns_per_rec", perRec(s, n))

	for _, f := range []string{"sam", "bed", "fastq", "json"} {
		enc, err := formats.New(f)
		if !p.t.op("formats.New "+f, err) {
			continue
		}
		s = p.span("formats."+f, "formats", func() (map[string]float64, error) {
			out := 0
			for i := range recs {
				if buf, err = enc.Encode(buf[:0], &recs[i], h); err != nil {
					return nil, err
				}
				out += len(buf)
			}
			return recCounts(n, 0, out), nil
		})
		p.set("formats."+f+"_ns_per_rec", perRec(s, n))
	}

	// kern's transcoders over every read's bases and qualities.
	seqs, quals, bases := make([][]byte, n), make([][]byte, n), 0
	for i := range recs {
		seqs[i], quals[i] = []byte(recs[i].Seq), []byte(recs[i].Qual)
		bases += len(seqs[i])
	}
	packed := make([][]byte, n)
	s = p.span("kern.pack", "kern", func() (map[string]float64, error) {
		for i, q := range seqs {
			packed[i] = make([]byte, (len(q)+1)/2)
			kern.PackSeq(packed[i], q)
		}
		return recCounts(n, bases, bases/2), nil
	})
	p.set("kern.pack_mb_s", mbPerS(bases, s))
	scratch := make([]byte, 1<<16)
	s = p.span("kern.unpack", "kern", func() (map[string]float64, error) {
		for i, q := range packed {
			kern.UnpackSeq(scratch[:len(seqs[i])], q, len(seqs[i]))
		}
		return recCounts(n, bases/2, bases), nil
	})
	p.set("kern.unpack_mb_s", mbPerS(bases, s))
	s = p.span("kern.qualshift", "kern", func() (map[string]float64, error) {
		for _, q := range quals {
			kern.AddConst(scratch[:len(q)], q, 256-33)
		}
		return recCounts(n, bases, bases), nil
	})
	p.set("kern.qualshift_mb_s", mbPerS(bases, s))
	s = p.span("kern.revcomp", "kern", func() (map[string]float64, error) {
		for _, q := range seqs {
			kern.ReverseComplement(scratch[:len(q)], q)
		}
		return recCounts(n, bases, bases), nil
	})
	p.set("kern.revcomp_mb_s", mbPerS(bases, s))
	positions := make([][]byte, n)
	for i := range recs {
		positions[i] = strconv.AppendInt(nil, int64(recs[i].Pos), 10)
	}
	s = p.span("kern.parseuint", "kern", func() (map[string]float64, error) {
		for _, q := range positions {
			if _, ok := kern.ParseUint(q, 1<<31); !ok {
				return nil, errors.New("kern.ParseUint refused " + string(q))
			}
		}
		return map[string]float64{"calls": float64(n)}, nil
	})
	p.set("kern.parseuint_ns", perRec(s, n))

	// The per-record kernels of the two analyses.
	bodies := make([][]byte, n)
	for i := range recs {
		b, err := bam.EncodeRecord(nil, &recs[i], h)
		if err != nil {
			p.t.op("bam.EncodeRecord", err)
			return
		}
		bodies[i] = b[4:]
	}
	s = p.span("flagstat.body", "flagstat", func() (map[string]float64, error) {
		var st flagstat.Stats
		for _, b := range bodies {
			st.AddBody(b)
		}
		if st.Total != int64(n) {
			return nil, errors.New("flagstat.AddBody lost records")
		}
		return recCounts(n, 0, 0), nil
	})
	p.set("flagstat.body_ns_per_rec", perRec(s, n))
	s = p.span("hist.interval", "hist", func() (map[string]float64, error) {
		hg, err := hist.New(histRef, h.Refs[0].Length, histBin)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			hg.AddInterval(recs[i].Pos, recs[i].End(), 1)
		}
		return recCounts(n, 0, 0), nil
	})
	p.set("hist.interval_ns_per_rec", perRec(s, n))
}

// probeCodec covers bgzf in both directions, sequential and parallel,
// over the BAM file's own payload.
func probeCodec(p *probes, d *probeData) {
	compressed, err := os.ReadFile(d.in.bam)
	if !p.t.op("read "+d.in.bam, err) {
		return
	}
	var raw []byte
	blocks := 0
	s := p.span("bgzf.inflate", "bgzf", func() (map[string]float64, error) {
		r := bgzf.NewReader(bytes.NewReader(compressed))
		for {
			b, _, err := r.NextBlock()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			raw = append(raw, b...)
			blocks++
			r.Recycle(b)
		}
		return map[string]float64{"blocks": float64(blocks), "bytes_in": float64(len(compressed)), "bytes_out": float64(len(raw))}, nil
	})
	p.set("bgzf.inflate_mb_s", mbPerS(len(raw), s))
	p.set("bgzf.blocks", float64(blocks))

	s = p.span("bgzf.inflate_par", "bgzf", func() (map[string]float64, error) {
		r := bgzf.NewParallelReader(bytes.NewReader(compressed), bgzf.AutoWorkers())
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err == nil && int(n) != len(raw) {
			err = errors.New("bgzf.ParallelReader: short stream")
		}
		return map[string]float64{"bytes_in": float64(len(compressed)), "bytes_out": float64(n)}, err
	})
	p.set("bgzf.inflate_par_mb_s", mbPerS(len(raw), s))

	var out bytes.Buffer
	s = p.span("bgzf.deflate", "bgzf", func() (map[string]float64, error) {
		w := bgzf.NewWriter(&out)
		if _, err := w.Write(raw); err != nil {
			return nil, err
		}
		return map[string]float64{"bytes_in": float64(len(raw))}, w.Close()
	})
	p.set("bgzf.deflate_mb_s", mbPerS(len(raw), s))
	p.set("bgzf.deflate_ratio", float64(out.Len())/float64(len(raw)))
	if !bytes.Equal(out.Bytes(), compressed) {
		p.t.op("bgzf.deflate", errors.New("re-deflated BAM payload differs from the file"))
	}

	var par bytes.Buffer
	s = p.span("bgzf.deflate_par", "bgzf", func() (map[string]float64, error) {
		w := bgzf.NewParallelWriter(&par, bgzf.AutoWorkers())
		if _, err := w.Write(raw); err != nil {
			return nil, err
		}
		return map[string]float64{"bytes_in": float64(len(raw))}, w.Close()
	})
	p.set("bgzf.deflate_par_mb_s", mbPerS(len(raw), s))
	if !bytes.Equal(par.Bytes(), compressed) {
		p.t.op("bgzf.deflate_par", errors.New("parallel deflate differs from the sequential stream"))
	}
}

// probeContainers covers bam, bamx (+BAMZ, in probeConv) and pamx
// readers and writers.
func probeContainers(p *probes, d *probeData) {
	recs, h := d.ds.Records, d.ds.Header
	n := len(recs)
	openBAM := func() (*os.File, *bam.Reader, error) {
		f, err := os.Open(d.in.bam)
		if err != nil {
			return nil, nil, err
		}
		br, err := bam.NewReader(f)
		if err != nil {
			f.Close()
		}
		return f, br, err
	}

	var bodies [][]byte
	bodyBytes := 0
	s := p.span("bam.scan_bodies", "bam", func() (map[string]float64, error) {
		f, br, err := openBAM()
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bam.NewBodyScanner(br)
		for {
			b, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, append([]byte(nil), b...))
			bodyBytes += len(b)
		}
		return recCounts(len(bodies), int(fileSize(d.in.bam)), bodyBytes), nil
	})
	p.set("bam.scan_bodies_mb_s", mbPerS(bodyBytes, s))

	s = p.span("bam.decode", "bam", func() (map[string]float64, error) {
		var rec sam.Record
		for _, b := range bodies {
			if err := bam.DecodeRecord(b, &rec, h); err != nil {
				return nil, err
			}
		}
		return recCounts(len(bodies), bodyBytes, 0), nil
	})
	p.set("bam.decode_ns_per_rec", perRec(s, n))

	var buf []byte
	s = p.span("bam.encode", "bam", func() (map[string]float64, error) {
		out := 0
		for i := range recs {
			var err error
			if buf, err = bam.EncodeRecord(buf[:0], &recs[i], h); err != nil {
				return nil, err
			}
			out += len(buf)
		}
		return recCounts(n, 0, out), nil
	})
	p.set("bam.encode_ns_per_rec", perRec(s, n))

	var idx *bam.Index
	s = p.span("bam.build_index", "bam", func() (map[string]float64, error) {
		f, err := os.Open(d.in.bam)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		idx, err = bam.BuildFileIndex(f)
		return recCounts(n, int(fileSize(d.in.bam)), 0), err
	})
	p.set("bam.build_index_s", s)

	s = p.span("bam.region_read", "bam", func() (map[string]float64, error) {
		f, br, err := openBAM()
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rr, err := bam.NewRegionReader(br, idx, histRef, 0, h.Refs[0].Length)
		if err != nil {
			return nil, err
		}
		got := 0
		for {
			if _, err := rr.NextBody(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			got++
		}
		return recCounts(got, 0, 0), nil
	})
	p.set("bam.region_read_s", s)

	s = p.span("bam.parallel_scan", "bam", func() (map[string]float64, error) {
		f, br, err := openBAM()
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ps := bam.NewParallelScanner(br, bgzf.AutoWorkers())
		defer ps.Close()
		var rec sam.Record
		got := 0
		for {
			ok, err := ps.Next(&rec)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			got++
		}
		if got != n {
			return nil, errors.New("bam.ParallelScanner lost records")
		}
		return recCounts(got, int(fileSize(d.in.bam)), 0), nil
	})
	p.set("bam.parallel_scan_s", s)

	// BAMX: fixed-stride reads, decode, index lookups; and the padded
	// write the preprocessors end with.
	xf, err := os.Open(d.in.bamx)
	if !p.t.op("open "+d.in.bamx, err) {
		return
	}
	defer xf.Close()
	x, err := bamx.Open(xf, fileSize(d.in.bamx))
	if !p.t.op("bamx.Open", err) {
		return
	}
	stride := x.Stride()
	slab := make([]byte, int(x.NumRecords())*stride)
	s = p.span("bamx.read_raw", "bamx", func() (map[string]float64, error) {
		for i := 0; i < int(x.NumRecords()); i++ {
			if err := x.ReadRaw(int64(i), slab[i*stride:(i+1)*stride]); err != nil {
				return nil, err
			}
		}
		return recCounts(int(x.NumRecords()), len(slab), 0), nil
	})
	p.set("bamx.read_raw_ns_per_rec", perRec(s, n))
	s = p.span("bamx.decode", "bamx", func() (map[string]float64, error) {
		var rec sam.Record
		var body []byte
		for i := 0; i < len(slab); i += stride {
			var err error
			if body, err = x.DecodeInto(slab[i:i+stride], body, &rec); err != nil {
				return nil, err
			}
		}
		return recCounts(int(x.NumRecords()), len(slab), 0), nil
	})
	p.set("bamx.decode_ns_per_rec", perRec(s, n))
	p.span("bamx.write", "bamx", func() (map[string]float64, error) {
		w, err := bamx.NewWriter(io.Discard, h, x.Caps())
		if err != nil {
			return nil, err
		}
		for _, b := range bodies {
			if err := w.WriteEncoded(b); err != nil {
				return nil, err
			}
		}
		return recCounts(len(bodies), bodyBytes, len(bodies)*stride), nil
	})
	const lookups = 20000
	s = p.span("bamx.index_lookup", "bamx", func() (map[string]float64, error) {
		f, err := os.Open(d.in.baix)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ix, err := bamx.ReadIndex(f)
		if err != nil {
			return nil, err
		}
		span := int32(h.Refs[0].Length / 4)
		for i := 0; i < lookups; i++ {
			beg := int32(i) % span
			if lo, hi := ix.Region(0, beg, beg+span); hi < lo {
				return nil, errors.New("bamx.Index.Region returned an inverted range")
			}
		}
		return map[string]float64{"calls": lookups}, nil
	})
	p.set("bamx.index_lookup_us", s*1e6/lookups)
	p.set("bamx.bytes_per_bam_byte", float64(fileSize(d.in.bamx))/float64(fileSize(d.in.bam)))

	// PAMX: the three projections the journeys use, and what the flag
	// column costs against the whole file.
	pf, err := pamx.OpenPath(d.in.pamx)
	if !p.t.op("pamx.OpenPath", err) {
		return
	}
	defer pf.Close()
	readGroups := func(fields pamx.Fields) (map[string]float64, error) {
		got, in := 0, int64(0)
		for g := 0; g < pf.NumGroups(); g++ {
			gr, err := pf.NewGroupReader(g, fields)
			if err != nil {
				return nil, err
			}
			for {
				if _, err := gr.NextBody(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					gr.Close()
					return nil, err
				}
				got++
			}
			gr.Close()
			info := pf.Group(g)
			in += info.CompressedBytes(fields)
		}
		if got != n {
			return nil, errors.New("pamx.GroupReader lost records")
		}
		return recCounts(got, int(in), 0), nil
	}
	p.set("pamx.read_all_s", p.span("pamx.read_all", "pamx", func() (map[string]float64, error) { return readGroups(pamx.FieldAll) }))
	p.set("pamx.read_flag_s", p.span("pamx.read_flag", "pamx", func() (map[string]float64, error) { return readGroups(pamx.FieldFlag) }))
	p.set("pamx.read_coord_cigar_s", p.span("pamx.read_coord_cigar", "pamx", func() (map[string]float64, error) {
		return readGroups(pamx.FieldCoord | pamx.FieldCigar)
	}))
	var flagBytes, allBytes int64
	for g := 0; g < pf.NumGroups(); g++ {
		info := pf.Group(g)
		flagBytes += info.CompressedBytes(pamx.FieldFlag)
		allBytes += info.CompressedBytes(pamx.FieldAll)
	}
	p.set("pamx.flag_bytes_share", float64(flagBytes)/float64(allBytes))
	p.set("pamx.bytes_per_bam_byte", float64(fileSize(d.in.pamx))/float64(fileSize(d.in.bam)))
	p.set("pamx.groups", float64(pf.NumGroups()))
}
