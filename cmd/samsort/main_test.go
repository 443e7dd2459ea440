package main

import (
	"flag"
	"reflect"
	"testing"

	"parseq/internal/engine"
)

// The job a command line describes is the job the equivalent JSON spec
// describes; -out and -chunk have no JSON name and travel in the Env.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		argv []string
		json string
		env  engine.Env
	}{
		{[]string{"-in", "d/a.sam"}, `{"op":"sort","ranks":1,"input_path":"d/a.sam"}`,
			engine.Env{OutPath: "d/a.sorted.bam"}},
		{[]string{"-in", "a.bam", "-out", "s.bam", "-p", "4", "-chunk", "500", "-codec-workers", "2"},
			`{"op":"sort","ranks":4,"codec_workers":2,"input_path":"a.bam"}`,
			engine.Env{OutPath: "s.bam", ChunkRecords: 500}},
	}
	for _, tc := range cases {
		o, err := parse(flag.NewFlagSet("samsort", flag.ContinueOnError), tc.argv)
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
