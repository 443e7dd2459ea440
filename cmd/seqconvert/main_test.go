package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// parseArgs parses argv on a fresh, silent flag set.
func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("seqconvert", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, argv)
}

// The job a command line describes is the job the equivalent JSON spec
// describes: both front ends fill one engine.Spec, so a field reachable
// from one side only shows up here as a mismatch. The worker counts
// are no part of either: -p is the job's one parallelism setting.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		argv []string
		json string
		env  engine.Env
	}{
		{[]string{"-in", "a.sam"},
			`{"op":"convert","converter":"auto","ranks":1,"input_path":"a.sam"}`,
			engine.Env{OutDir: ".", OutPrefix: "out"}},
		{[]string{"-in", "a.bamx", "-format", "bed", "-p", "4", "-region", "chr1:1-100", "-converter", "bamx",
			"-out", "d", "-prefix", "x", "-baix", "i.baix"},
			`{"op":"convert","converter":"bamx","format":"bed","ranks":4,"region":"chr1:1-100","input_path":"a.bamx"}`,
			engine.Env{OutDir: "d", OutPrefix: "x", BAIX: "i.baix"}},
		{[]string{"-in", "a.bam", "-format", "pamx"},
			`{"converter":"auto","format":"pamx","ranks":1,"input_path":"a.bam"}`,
			engine.Env{OutDir: ".", OutPrefix: "out"}},
		{[]string{"-in", "a.sam", "-format", "bamx", "-p", "3"},
			`{"converter":"auto","format":"bamx","ranks":3,"input_path":"a.sam"}`,
			engine.Env{OutDir: ".", OutPrefix: "out"}},
	}
	for _, tc := range cases {
		o, err := parseArgs(tc.argv)
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
	// No worker count and no preprocessing fork: a container is a
	// -format, and GOMAXPROCS is the CPU budget under -p.
	for _, argv := range [][]string{
		{"-in", "a.sam", "-codec-workers", "2"},
		{"-in", "a.sam", "-parse-workers", "2"},
		{"-in", "a.sam", "-converter", "psam", "-pre-p", "2"},
		{"-in", "a.bam", "-preprocess"},
	} {
		if _, err := parseArgs(argv); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
}

// A container target (-format pamx or bamx) is a whole-file rewrite of
// a container input, so it takes no -region and pamx takes no SAM; SAM
// text takes no -region outside psam. A .pamx input reaches every
// per-rank format, bam included.
func TestPAMXRejectsRegionAndFormat(t *testing.T) {
	for _, argv := range [][]string{
		{"-in", "a.bam", "-format", "pamx", "-region", "chr1:1-100"},
		{"-in", "a.pamx", "-format", "bamx", "-region", "chr1:1-100"},
		{"-in", "a.sam", "-format", "pamx"},
		{"-in", "a.sam", "-format", "bed", "-region", "chr1:1-100"},
	} {
		o, err := parseArgs(argv)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.spec.Validate(); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
	for _, argv := range [][]string{
		{"-in", "a.pamx", "-format", "bam"},
		{"-in", "a.pamx", "-region", "chr1:1-100"},
		{"-in", "a.bamx", "-format", "pamx"},
	} {
		o, err := parseArgs(argv)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.spec.Validate(); err != nil {
			t.Errorf("%v: %v", argv, err)
		}
	}
}
