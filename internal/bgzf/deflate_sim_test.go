package bgzf_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/formats/pamx"
	"parseq/internal/simdata"
)

// payloadSet is the uncompressed payloads of a run of BGZF members.
type payloadSet struct {
	name     string
	payloads [][]byte
}

// members inflates a BGZF stream block by block.
func members(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	r := bgzf.NewReader(bytes.NewReader(stream))
	for {
		b, _, err := r.NextBlock()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// simPayloads generates a dataset and returns the payloads the product
// hands the encoder for it: the BAM writer's members, then the PAMX
// writer's members column by column (coord, qname, cigar, seq, qual, aux).
func simPayloads(t testing.TB, cfg simdata.Config) (bamSet payloadSet, columns []payloadSet) {
	t.Helper()
	ds := simdata.Generate(cfg)
	var buf bytes.Buffer
	if err := ds.WriteBAM(&buf); err != nil {
		t.Fatal(err)
	}
	bamSet = payloadSet{"bam", members(t, buf.Bytes())}

	buf.Reset()
	pw, err := pamx.NewWriter(&buf, ds.Header, pamx.Options{CodecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Records {
		if err := pw.Write(&ds.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pamx.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for c, name := range []string{"coord", "qname", "cigar", "seq", "qual", "aux"} {
		col := payloadSet{name: name}
		for g := 0; g < f.NumGroups(); g++ {
			e := f.Group(g).Cols[c]
			if e.CLen == 0 {
				continue // an empty column has no blob at all
			}
			col.payloads = append(col.payloads, members(t, buf.Bytes()[e.Off:e.Off+e.CLen])...)
		}
		columns = append(columns, col)
	}
	return bamSet, columns
}

// TestDeflateSimColumns adds the product's own payload shapes to the
// correctness table: a BAM member, and one block of every PAMX column —
// the packed-sequence and read-name columns are the two the TOO_FAR rule
// was tuned on.
func TestDeflateSimColumns(t *testing.T) {
	bamSet, columns := simPayloads(t, simdata.DefaultConfig(3000))
	for _, set := range append(columns, bamSet) {
		if len(set.payloads) == 0 {
			t.Fatalf("no %s payload", set.name)
		}
		p := set.payloads[0]
		member := deflateOne(t, p)
		bgzf.CheckMember(t, p, member)
		if len(member) >= len(p) {
			t.Errorf("%s: %d bytes wrap to %d", set.name, len(p), len(member))
		}
	}
}

// TestGzipInflatesOurMembers is the offline form of the "samtools reads
// our bytes" guard. zlib is stricter than compress/flate about
// incomplete and degenerate Huffman codes, so when the gzip binary is
// installed it must decode a multi-block BAM written at codec workers 1
// and 4, the correctness table's members (single literal, no distance
// code, stored, fixed) and the non-stationary table's, to the bytes
// bgzf.Reader returns.
func TestGzipInflatesOurMembers(t *testing.T) {
	gz, err := exec.LookPath("gzip")
	if err != nil {
		t.Skip("no gzip binary on PATH")
	}
	streams := map[string][]byte{}
	ds := simdata.Generate(simdata.DefaultConfig(8000))
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		w, err := bam.NewWriter(&buf, ds.Header, bam.WithCodecWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.Records {
			if err := w.Write(&ds.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		streams[fmt.Sprintf("bam, %d codec workers", workers)] = buf.Bytes()
	}
	var table, shifts []byte
	for _, c := range bgzf.DeflateCases() {
		table = append(table, deflateOne(t, c.Payload)...)
	}
	for _, c := range shiftCases(t) {
		shifts = append(shifts, deflateOne(t, c.payload)...)
	}
	streams["correctness table"] = append(table, bgzf.EOFMarker()...)
	streams["non-stationary table"] = append(shifts, bgzf.EOFMarker()...)

	for name, stream := range streams {
		if n := len(members(t, stream)); n < 3 {
			t.Fatalf("%s: %d data blocks, want several", name, n)
		}
		want, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(stream)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cmd := exec.Command(gz, "-dc")
		cmd.Stdin = bytes.NewReader(stream)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: gzip -dc: %v: %s", name, err, stderr.String())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: gzip -dc returns %d bytes that differ from bgzf.Reader's %d", name, len(got), len(want))
		}
	}
}

// FuzzDeflateBlock feeds the encoder arbitrary payloads: the member must
// inflate back to the payload under compress/flate and compress/gzip,
// fit MaxBlockSize, never be larger than a stored block, and carry the
// reference search's bytes.
func FuzzDeflateBlock(f *testing.F) {
	for _, c := range bgzf.DeflateCases() {
		f.Add(c.Payload)
	}
	bamSet, _ := simPayloads(f, simdata.DefaultConfig(1500))
	for _, p := range bamSet.payloads {
		f.Add(p)
	}
	for _, c := range shiftCases(f) {
		f.Add(c.payload)
	}
	same := sameBytes()
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > bgzf.MaxPayload {
			payload = payload[:bgzf.MaxPayload]
		}
		bgzf.CheckMember(t, payload, deflateOne(t, payload))
		if !same(payload) {
			t.Fatal("the encoder and the reference search emit different bytes")
		}
	})
}

// sameBytes reports whether the encoder, at the product's chain depth,
// deflates a payload to the same bytes as the reference search.
func sameBytes() func(p []byte) bool {
	enc, ref := bgzf.NewRawDeflate(), bgzf.NewReferenceDeflate()
	a, b := make([]byte, 0, bgzf.MaxBlockSize), make([]byte, 0, bgzf.MaxBlockSize)
	return func(p []byte) bool { return bytes.Equal(enc(a, p), ref(b, p)) }
}

// TestMatchfinderSameBytes holds the four-byte candidate test to its
// promise: it rejects only candidates that cannot beat best, so the
// search takes the reference's matches at every depth the planner runs
// it, and every payload the product hands the encoder — the correctness
// table, a BAM's members and each PAMX column's, on both frontier
// inputs — deflates to the same bytes.
func TestMatchfinderSameBytes(t *testing.T) {
	table := payloadSet{name: "correctness table"}
	for _, c := range bgzf.DeflateCases() {
		table.payloads = append(table.payloads, c.Payload)
	}
	sets := []payloadSet{table}
	for _, in := range frontierInputs(5000) {
		bamSet, columns := simPayloads(t, in.cfg)
		for _, set := range append(columns, bamSet) {
			set.name = in.name + ", " + set.name
			sets = append(sets, set)
		}
	}
	same := sameBytes()
	for _, set := range sets {
		if len(set.payloads) == 0 {
			t.Fatalf("no %s payload", set.name)
		}
		for i, p := range set.payloads {
			if !same(p) {
				t.Errorf("%s: payload %d of %d deflates differently from the reference search", set.name, i, len(set.payloads))
				break
			}
		}
	}
}

// TestPlannerByteBounds holds the planner to its byte bounds on every
// payload the product hands the encoder at the frontier's size: each BAM
// member is the full search's, byte for byte; the PAMX columns together
// stay within ±0.5 % of the full search (half out_in_ratio's bound); and
// packed bases, where matches do not pay, come out no larger.
func TestPlannerByteBounds(t *testing.T) {
	planned, full := bgzf.NewRawDeflate(), bgzf.NewFullDeflate(bgzf.MaxChain)
	a, b := make([]byte, 0, bgzf.MaxBlockSize), make([]byte, 0, bgzf.MaxBlockSize)
	for _, in := range frontierInputs(40000) {
		bamSet, columns := simPayloads(t, in.cfg)
		for i, p := range bamSet.payloads {
			if !bytes.Equal(planned(a, p), full(b, p)) {
				t.Errorf("%s: BAM payload %d of %d differs from the full search's bytes", in.name, i, len(bamSet.payloads))
				break
			}
		}
		got, want := make([]int, len(columns)), make([]int, len(columns))
		for c, col := range columns {
			for _, p := range col.payloads {
				got[c] += len(planned(a, p))
				want[c] += len(full(b, p))
			}
		}
		failed := false
		if sum(got) < sum(want)*995/1000 || sum(got) > sum(want)*1005/1000 {
			t.Errorf("%s: PAMX columns deflate to %d bytes, %+.2f%% off the full search's %d", in.name, sum(got), 100*(float64(sum(got))/float64(sum(want))-1), sum(want))
			failed = true
		}
		for c, col := range columns {
			if col.name == "seq" && got[c] > want[c] {
				t.Errorf("%s: seq deflates to %d bytes, more than the full search's %d", in.name, got[c], want[c])
				failed = true
			}
		}
		if !failed {
			continue
		}
		for c, col := range columns {
			var searched, shallow, literal int
			for _, p := range col.payloads {
				f, s, l := bgzf.PlanTiers(p)
				searched, shallow, literal = searched+f, shallow+s, literal+l
			}
			t.Logf("%s %-5s: %d bytes against %d; %d searched in full, %d at the shallow chain, %d as literals",
				in.name, col.name, got[c], want[c], searched, shallow, literal)
		}
	}
}

func sum(v []int) (n int) {
	for _, x := range v {
		n += x
	}
	return n
}

type shiftCase struct {
	name    string
	payload []byte
}

// shiftCases is a table of full payloads whose content changes once,
// between the product's shapes and random bytes, in both directions:
// from a part the planner codes as literals or at the shallow chain into
// one that matches pay for, and back.
func shiftCases(t testing.TB) []shiftCase {
	t.Helper()
	cfg := simdata.DefaultConfig(3000)
	var text bytes.Buffer
	if err := simdata.Generate(cfg).WriteSAM(&text); err != nil {
		t.Fatal(err)
	}
	bamSet, columns := simPayloads(t, cfg)
	random := make([]byte, bgzf.MaxPayload)
	rand.New(rand.NewSource(51)).Read(random)
	shapes := map[string][]byte{
		"random": random, "text": text.Bytes(), "BAM": bytes.Join(bamSet.payloads[1:], nil),
		"packed bases": bytes.Join(columns[3].payloads, nil), "qualities": bytes.Join(columns[4].payloads, nil),
	}
	var cases []shiftCase
	for _, c := range []struct {
		first  string
		n      int
		second string
	}{
		{"random", 2 << 10, "text"},
		{"random", 4 << 10, "text"},
		{"random", 16 << 10, "text"},
		{"text", 16 << 10, "random"},
		{"packed bases", 2 << 10, "BAM"},
		{"packed bases", 8 << 10, "BAM"},
		{"qualities", 4 << 10, "BAM"},
		{"BAM", 8 << 10, "packed bases"},
	} {
		first, second := shapes[c.first], shapes[c.second]
		if len(first) < c.n || len(second) < bgzf.MaxPayload-c.n {
			t.Fatalf("%s or %s is short", c.first, c.second)
		}
		p := append(bytes.Clone(first[:c.n]), second[:bgzf.MaxPayload-c.n]...)
		cases = append(cases, shiftCase{fmt.Sprintf("%s %d KiB + %s", c.first, c.n>>10, c.second), p})
	}
	return cases
}

// TestPlannerShifts holds the planner to within 3 % of the full search
// on payloads whose content changes once: a part coded as literals must
// hand over to the search when matches start to pay (the probe), and
// every member must inflate back to its payload through unwrapBlock,
// compress/flate and compress/gzip.
func TestPlannerShifts(t *testing.T) {
	planned, full := bgzf.NewRawDeflate(), bgzf.NewFullDeflate(bgzf.MaxChain)
	a, b := make([]byte, 0, bgzf.MaxBlockSize), make([]byte, 0, bgzf.MaxBlockSize)
	for _, c := range shiftCases(t) {
		member := deflateOne(t, c.payload)
		bgzf.CheckMember(t, c.payload, member)
		if got := members(t, append(member, bgzf.EOFMarker()...)); len(got) != 1 || !bytes.Equal(got[0], c.payload) {
			t.Fatalf("%s: unwrapBlock does not inflate the member back to its payload", c.name)
		}
		got, want := len(planned(a, c.payload)), len(full(b, c.payload))
		t.Logf("%s: %d bytes, %+.2f%% against the full search", c.name, got, 100*(float64(got)/float64(want)-1))
		if got*100 > want*103 {
			t.Errorf("%s: %d bytes, more than 3 %% over the full search's %d", c.name, got, want)
		}
	}
}

// deflateOne wraps one payload into a member on the caller.
func deflateOne(t testing.TB, payload []byte) []byte {
	t.Helper()
	members := make([][]byte, 1)
	if err := bgzf.DeflateBlocks(members, [][]byte{payload}, 1); err != nil {
		t.Fatal(err)
	}
	return members[0]
}

// frontierInputs is the frontier's two generated inputs at a size.
func frontierInputs(reads int) []struct {
	name string
	cfg  simdata.Config
} {
	seed2 := simdata.DefaultConfig(reads)
	seed2.Seed, seed2.ReadLen = 2, 150
	return []struct {
		name string
		cfg  simdata.Config
	}{{"seed 1", simdata.DefaultConfig(reads)}, {"seed 2, 150 bases", seed2}}
}

// TestDeflateFrontier prints DESIGN.md's codec frontier: compress/flate
// at every level against the in-tree full search at four chain depths,
// the reference search under the planner and the planner the product
// runs, one thread, over the payloads of two generated inputs. Each pass
// runs every codec once, round-robin, and each row keeps its fastest of
// five passes, so a noisy neighbour cannot single out one row. It
// measures, so it only runs when asked: `make deflate-frontier`.
func TestDeflateFrontier(t *testing.T) {
	if os.Getenv("BGZF_FRONTIER") == "" {
		t.Skip("set BGZF_FRONTIER=1 to measure")
	}
	type codec struct {
		name string
		run  func(dst, p []byte) []byte
	}
	var codecs []codec
	for _, level := range []int{flate.HuffmanOnly, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		var out bytes.Buffer
		fw, _ := flate.NewWriter(&out, level)
		name := fmt.Sprintf("flate L%d", level)
		if level == flate.HuffmanOnly {
			name = "flate HuffmanOnly"
		}
		codecs = append(codecs, codec{name, func(_, p []byte) []byte {
			out.Reset()
			fw.Reset(&out)
			fw.Write(p)
			fw.Close()
			return out.Bytes()
		}})
	}
	for _, chain := range []int{32, 64, 96, 128} {
		codecs = append(codecs, codec{fmt.Sprintf("in-tree full search, chain %d", chain), bgzf.NewFullDeflate(chain)})
	}
	codecs = append(codecs,
		codec{"reference search, planner", bgzf.NewReferenceDeflate()},
		codec{"in-tree planner (chosen)", bgzf.NewRawDeflate()})

	const passes = 5
	for _, in := range frontierInputs(40000) {
		bamSet, columns := simPayloads(t, in.cfg)
		npamx := 0
		for _, col := range columns {
			npamx += len(col.payloads)
		}
		type row struct {
			took    [2]time.Duration // fastest pass over the BAM payloads, then the PAMX columns'
			in, out [2][]int         // their bytes per set, the same on every pass
		}
		rows := make([]row, len(codecs))
		for pass := range passes {
			for i, c := range codecs {
				r := &rows[i]
				for k, sets := range [][]payloadSet{{bamSet}, columns} {
					took, in, out := runPass(c.run, sets)
					if pass == 0 || took < r.took[k] {
						r.took[k] = took
					}
					r.in[k], r.out[k] = in, out
				}
			}
		}

		fmt.Printf("\n%s: %d BAM payloads, %d PAMX payloads\n", in.name, len(bamSet.payloads), npamx)
		fmt.Println("| codec | BAM MB/s | BAM ratio | PAMX MB/s | PAMX ratio | coord | qname | cigar | seq | qual | aux |")
		for i, c := range codecs {
			r := rows[i]
			fmt.Printf("| %s ", c.name)
			for k := range r.took {
				in, out := 0, 0
				for s := range r.in[k] {
					in, out = in+r.in[k][s], out+r.out[k][s]
				}
				fmt.Printf("| %.1f | %.4f ", float64(in)/1e6/r.took[k].Seconds(), float64(out)/float64(in))
			}
			for col := range columns {
				fmt.Printf("| %.4f ", float64(r.out[1][col])/float64(r.in[1][col]))
			}
			fmt.Println("|")
		}
	}
}

// runPass compresses every payload of the sets once and returns the time
// it took and each set's uncompressed and compressed bytes.
func runPass(run func(dst, p []byte) []byte, sets []payloadSet) (took time.Duration, in, out []int) {
	dst := make([]byte, 0, bgzf.MaxBlockSize)
	in, out = make([]int, len(sets)), make([]int, len(sets))
	t0 := time.Now()
	for i, set := range sets {
		for _, p := range set.payloads {
			in[i] += len(p)
			out[i] += len(run(dst, p))
		}
	}
	return time.Since(t0), in, out
}
