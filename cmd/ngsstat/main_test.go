package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// The jobs a command line describes are the jobs the equivalent JSON
// specs describe; -out, -sims (a glob of measured datasets), -maxgap and
// -minwidth have no JSON name and travel in the Env. The NL-means and
// FDR parameters belong to their ops alone.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		argv []string
		json string
		env  engine.Env
	}{
		{[]string{"-op", "hist", "-in", "a.bam", "-rname", "chr1"},
			`{"op":"hist","rname":"chr1","bin":200,"ranks":1,"input_path":"a.bam"}`,
			engine.Env{OutPath: "a.bam.hist.tsv", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "hist", "-in", "a.bamx", "-rname", "chr2", "-bin", "50", "-p", "4", "-shards", "16", "-out", "h.tsv"},
			`{"op":"hist","rname":"chr2","bin":50,"ranks":4,"shards":16,"input_path":"a.bamx"}`,
			engine.Env{OutPath: "h.tsv", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "peaks", "-in", "a.pamx", "-rname", "chr1", "-sims", "sim*.tsv", "-candidates", "1, 2.5,10", "-maxgap", "3", "-minwidth", "4"},
			`{"op":"peaks","rname":"chr1","bin":200,"ranks":1,"candidates":[1,2.5,10],"input_path":"a.pamx"}`,
			engine.Env{OutPath: "a.pamx.peaks.tsv", MaxGap: 3, MinWidth: 4}},
		{[]string{"-op", "nlmeans", "-in", "h.tsv", "-p", "3"},
			`{"op":"nlmeans","bin":200,"ranks":3,"r":20,"l":15,"sigma":10,"input_path":"h.tsv"}`,
			engine.Env{OutPath: "h.tsv.denoised", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "nlmeans", "-in", "h.tsv", "-r", "80", "-l", "0", "-sigma", "2.5", "-out", "d.tsv"},
			`{"op":"nlmeans","bin":200,"ranks":1,"r":80,"sigma":2.5,"input_path":"h.tsv"}`,
			engine.Env{OutPath: "d.tsv", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "fdr", "-in", "h.tsv", "-sims", "sim*.tsv", "-pt", "20"},
			`{"op":"fdr","bin":200,"ranks":1,"sims":8,"pt":20,"input_path":"h.tsv"}`,
			engine.Env{MaxGap: 1, MinWidth: 2}},
	}
	for _, tc := range cases {
		o, err := parse(flag.NewFlagSet("ngsstat", flag.ContinueOnError), tc.argv)
		if err != nil {
			t.Fatalf("%v: %v", tc.argv, err)
		}
		if err := o.spec.Validate(); err != nil {
			t.Fatalf("%v: %v", tc.argv, err)
		}
		want, err := engine.DecodeSpec([]byte(tc.json))
		if err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		if !reflect.DeepEqual(o.spec, want) {
			t.Errorf("%v builds\n %+v\n%s decodes to\n %+v", tc.argv, o.spec, tc.json, want)
		}
		if !reflect.DeepEqual(o.env, tc.env) {
			t.Errorf("%v env = %+v, want %+v", tc.argv, o.env, tc.env)
		}
	}
	for _, argv := range [][]string{
		{}, {"-op", "hist", "-rname", "chr1"}, {"-op", "peaks", "-in", "a.bam", "-rname", "chr1"},
		{"-op", "peaks", "-in", "a.bam", "-rname", "chr1", "-sims", "s*", "-candidates", "x"}, {"-op", "sort"},
		{"-op", "hist", "-in", "a.bam", "-rname", "chr1", "-workers", "2"},
		{"-op", "hist", "-bam", "a.bam", "-rname", "chr1"}, {"-op", "nlmeans"}, {"-op", "fdr", "-in", "h.tsv"},
	} {
		fs := flag.NewFlagSet("ngsstat", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parse(fs, argv); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
}
