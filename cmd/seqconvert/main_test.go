package main

import (
	"flag"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// The job a command line describes is the job the equivalent JSON spec
// describes: both front ends fill one engine.Spec, so a field reachable
// from one side only shows up here as a mismatch.
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
			"-codec-workers", "2", "-parse-workers", "3", "-out", "d", "-prefix", "x", "-baix", "i.baix", "-pre-p", "2"},
			`{"op":"convert","converter":"bamx","format":"bed","ranks":4,"region":"chr1:1-100","codec_workers":2,"parse_workers":3,"input_path":"a.bamx"}`,
			engine.Env{OutDir: "d", OutPrefix: "x", BAIX: "i.baix", PreRanks: 2}},
		{[]string{"-in", "a.bam", "-converter", "pamx", "-codec-workers", "1"},
			`{"converter":"pamx","ranks":1,"codec_workers":1,"input_path":"a.bam"}`,
			engine.Env{OutDir: ".", OutPrefix: "out"}},
	}
	for _, tc := range cases {
		o, err := parse(flag.NewFlagSet("seqconvert", flag.ContinueOnError), tc.argv)
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
}

// -converter pamx used to drop -region and -format on the floor. A text
// -format on a .pamx input is honoured since (a conversion like any
// other container's); the columnar rewrites still take neither.
func TestPAMXRejectsRegionAndFormat(t *testing.T) {
	for _, argv := range [][]string{
		{"-in", "a.bam", "-converter", "pamx", "-region", "chr1:1-100"},
		{"-in", "a.pamx", "-format", "bam"},
		{"-in", "a.pamx", "-region", "chr1:1-100"},
	} {
		o, err := parse(flag.NewFlagSet("seqconvert", flag.ContinueOnError), argv)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.spec.Validate(); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
}
