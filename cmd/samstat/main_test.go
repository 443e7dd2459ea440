package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// The job a command line describes is the job the equivalent JSON spec
// describes.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		argv []string
		json string
	}{
		{[]string{"-in", "a.sam"}, `{"op":"flagstat","ranks":1,"input_path":"a.sam"}`},
		{[]string{"-in", "a.pamx", "-p", "2", "-shards", "32"},
			`{"op":"flagstat","ranks":2,"shards":32,"input_path":"a.pamx"}`},
	}
	for _, tc := range cases {
		o, err := parse(flag.NewFlagSet("samstat", flag.ContinueOnError), tc.argv)
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
	}
	// One input flag, -in, whatever the container; and no shard worker
	// count, -p being the job's one parallelism setting.
	for _, argv := range [][]string{{}, {"-bam", "a.bam"}, {"-in", "a.bam", "-workers", "4"}} {
		fs := flag.NewFlagSet("samstat", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parse(fs, argv); err == nil {
			t.Errorf("%v accepted", argv)
		}
	}
}
