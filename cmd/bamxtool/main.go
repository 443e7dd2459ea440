// Command bamxtool inspects and manipulates the framework's BAMX/BAIX
// files: print metadata, verify record integrity, rebuild indices,
// compress to the block-compressed BAMZ variant, and dump regions.
//
// Usage:
//
//	bamxtool info data.bamx
//	bamxtool verify data.bamx
//	bamxtool index data.bamx             # (re)build data.baix
//	bamxtool compress data.bamx          # write data.bamz
//	bamxtool region data.bamx chr1:1-50000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"parseq/internal/bamx"
	"parseq/internal/conv"
	"parseq/internal/obsflag"
	"parseq/internal/sam"
)

var obsFlags = obsflag.Register(nil)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	obsSession, err := obsFlags.Open("bamxtool")
	if err != nil {
		die(err)
	}
	defer obsSession.Finish()
	cmd, path := args[0], args[1]
	switch cmd {
	case "info":
		runInfo(path)
	case "verify":
		runVerify(path)
	case "index":
		runIndex(path)
	case "compress":
		runCompress(path)
	case "region":
		if len(args) < 3 {
			usage()
		}
		runRegion(path, args[2])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bamxtool {info|verify|index|compress} FILE.bamx")
	fmt.Fprintln(os.Stderr, "       bamxtool region FILE.bamx chr:beg-end")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bamxtool:", err)
	os.Exit(1)
}

func open(path string) (*bamx.File, *os.File) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	fi, err := f.Stat()
	if err != nil {
		die(err)
	}
	xf, err := bamx.Open(f, fi.Size())
	if err != nil {
		die(err)
	}
	return xf, f
}

func runInfo(path string) {
	xf, f := open(path)
	defer f.Close()
	caps := xf.Caps()
	fmt.Printf("file:        %s\n", path)
	fmt.Printf("records:     %d\n", xf.NumRecords())
	fmt.Printf("stride:      %d bytes\n", xf.Stride())
	fmt.Printf("caps:        qname=%d cigar=%d seq=%d aux=%d\n",
		caps.QName, caps.CigarOps, caps.Seq, caps.Aux)
	fmt.Printf("references:  %d\n", len(xf.Header().Refs))
	for _, ref := range xf.Header().Refs {
		fmt.Printf("  %-8s %d bp\n", ref.Name, ref.Length)
	}
}

func runVerify(path string) {
	xf, f := open(path)
	defer f.Close()
	scan := xf.Scan(0, xf.NumRecords())
	var rec, back sam.Record
	var line []byte
	n := int64(0)
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			die(fmt.Errorf("record %d: %w", n, err))
		}
		if !ok {
			break
		}
		// Each record must render and reparse as valid SAM; the byte
		// round-trip reuses line and back across records.
		line = rec.AppendTo(line[:0])
		if err := sam.ParseRecordIntoBytes(&back, line); err != nil {
			die(fmt.Errorf("record %d: %w", n, err))
		}
		n++
	}
	fmt.Printf("%s: %d records verified OK\n", path, n)
}

func runIndex(path string) {
	xf, f := open(path)
	defer f.Close()
	idx, err := bamx.BuildIndex(xf)
	if err != nil {
		die(err)
	}
	baixPath := strings.TrimSuffix(path, ".bamx") + ".baix"
	out, err := os.Create(baixPath)
	if err != nil {
		die(err)
	}
	if _, err := idx.WriteTo(out); err != nil {
		out.Close()
		die(err)
	}
	if err := out.Close(); err != nil {
		die(err)
	}
	fmt.Printf("wrote %s (%d entries)\n", baixPath, idx.Len())
}

func runCompress(path string) {
	bamzPath := strings.TrimSuffix(path, ".bamx") + ".bamz"
	n, err := bamx.CompressFile(path, bamzPath, bamx.DefaultRecsPerBlock, 0)
	if err != nil {
		die(err)
	}
	fi, _ := os.Stat(path)
	zi, _ := os.Stat(bamzPath)
	fmt.Printf("wrote %s: %d records, %d → %d bytes (%.1f%%)\n",
		bamzPath, n, fi.Size(), zi.Size(), 100*float64(zi.Size())/float64(fi.Size()))
}

func runRegion(path, regionSpec string) {
	region, err := conv.ParseRegion(regionSpec)
	if err != nil {
		die(err)
	}
	xf, f := open(path)
	defer f.Close()
	baixPath := strings.TrimSuffix(path, ".bamx") + ".baix"
	var idx *bamx.Index
	if data, err := os.ReadFile(baixPath); err == nil {
		if idx, err = bamx.ParseIndex(data); err != nil {
			die(err)
		}
	} else {
		idx, err = bamx.BuildIndex(xf)
		if err != nil {
			die(err)
		}
	}
	refID := xf.Header().RefID(region.RName)
	if refID < 0 {
		die(fmt.Errorf("reference %q not in header", region.RName))
	}
	beg, end := region.Beg, region.End
	if beg <= 0 {
		beg = 1
	}
	if end <= 0 {
		end = 1<<31 - 1
	}
	lo, hi := idx.Region(int32(refID), beg, end)
	fmt.Printf("%s: %d records start in %s\n", path, hi-lo, regionSpec)
	var rec sam.Record
	w := io.Writer(os.Stdout)
	scan := xf.ScanEntries(idx.Entries()[lo:hi])
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			die(err)
		}
		if !ok {
			break
		}
		fmt.Fprintln(w, rec.String())
	}
}
