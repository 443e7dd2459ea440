package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// The hist and peaks jobs a command line describes are the jobs the
// equivalent JSON specs describe; -out, -sims (a glob of measured
// datasets), -maxgap and -minwidth have no JSON name and travel in the
// Env.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		argv []string
		json string
		env  engine.Env
	}{
		{[]string{"-op", "hist", "-bam", "a.bam", "-rname", "chr1"},
			`{"op":"hist","rname":"chr1","bin":200,"ranks":1,"input_path":"a.bam"}`,
			engine.Env{OutPath: "a.bam.hist.tsv", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "hist", "-bam", "a.bamx", "-rname", "chr2", "-bin", "50", "-p", "4", "-shards", "16", "-out", "h.tsv"},
			`{"op":"hist","rname":"chr2","bin":50,"ranks":4,"shards":16,"input_path":"a.bamx"}`,
			engine.Env{OutPath: "h.tsv", MaxGap: 1, MinWidth: 2}},
		{[]string{"-op", "peaks", "-bam", "a.pamx", "-rname", "chr1", "-sims", "sim*.tsv", "-candidates", "1, 2.5,10", "-maxgap", "3", "-minwidth", "4"},
			`{"op":"peaks","rname":"chr1","bin":200,"ranks":1,"candidates":[1,2.5,10],"input_path":"a.pamx"}`,
			engine.Env{OutPath: "a.pamx.peaks.tsv", MaxGap: 3, MinWidth: 4}},
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
		{}, {"-op", "hist", "-rname", "chr1"}, {"-op", "peaks", "-bam", "a.bam", "-rname", "chr1"},
		{"-op", "peaks", "-bam", "a.bam", "-rname", "chr1", "-sims", "s*", "-candidates", "x"}, {"-op", "sort"},
		{"-op", "hist", "-bam", "a.bam", "-rname", "chr1", "-workers", "2"},
	} {
		fs := flag.NewFlagSet("ngsstat", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parse(fs, argv); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
}
