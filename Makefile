# parseq build/test entry points. `make ci` is the gate every change
# must pass: vet, staticcheck (when installed), formatting, build, the
# product-binary dependency check, the unlinked-function ratchet
# (linkcheck), the full race-enabled test suite, a one-iteration smoke
# run of the six surviving testing.B benchmarks (obs per-op costs, the
# kern scalar-vs-SWAR ratio, the one-core inflate rate), the paper
# reproduction smoke, the metrics-schema and live-endpoint smoke tests,
# and the short decoder fuzz pass (fuzz-inflate). Measuring is
# `go run ./bench`.

GO ?= go

.PHONY: all build test race race-convert vet staticcheck fmt-check deps-check linkcheck loc bench-smoke experiments-smoke metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke world-smoke fuzz-frame fuzz-kern fuzz-body fuzz-stats fuzz-deflate fuzz-inflate deflate-frontier fuzz-index fuzz-pamx fuzz-daemon ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The one fast pre-commit subset of `race`: the converter runtime
# (sources, sinks), the shard providers it reads every container
# through (internal/shard), the body→text encoders (internal/formats)
# and the BAMX reader (internal/bamx) that run on its rank goroutines, the batch
# line engine (internal/sam), the SAM analyses and the sorter that read
# through it, the PAMX group writer whose flush stage deflates on the
# shared pool beside its producer (internal/formats/pamx), the shared
# deflate pool and the parpipe plumbing under them, the engine and
# daemon that drive them concurrently, and the dataset generator whose
# simulation streams run on goroutines (internal/simdata). `ci` runs the
# full sweep.
race-convert:
	$(GO) test -race -count=1 ./internal/conv ./internal/shard ./internal/simdata ./internal/formats ./internal/formats/pamx ./internal/bamx ./internal/sam ./internal/hist ./internal/flagstat ./internal/sorter ./internal/bgzf ./internal/parpipe ./internal/engine ./internal/daemon

# A short deterministic fuzz pass over the wire-frame decoder: corrupt
# frames must error, never panic or over-allocate.
fuzz-frame:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/mpinet

# Short fuzz passes over the word-wide kernels: every kernel must agree
# with its scalar twin on arbitrary inputs, alignments and lengths.
fuzz-kern:
	$(GO) test -run '^$$' -fuzz 'FuzzUnpackSeq' -fuzztime 10s ./internal/kern
	$(GO) test -run '^$$' -fuzz 'FuzzShiftQual' -fuzztime 10s ./internal/kern
	$(GO) test -run '^$$' -fuzz 'FuzzParseUint' -fuzztime 10s ./internal/kern

# A short differential fuzz pass over the body→text encoders: for each
# of sam, bed, bedgraph, fasta and fastq, AppendBody on an arbitrary
# body must append exactly what Encode appends for DecodeRecord's
# record, and fail exactly when the decode fails. Every input is checked
# under all five formats, so 50 s is 10 s per format.
fuzz-body:
	$(GO) test -run '^$$' -fuzz 'FuzzAppendBody' -fuzztime 50s ./internal/formats

# Short fuzz passes over the statistics kernels: the FDR rank counts must
# equal the reference's pairwise loops (ties, zeros, NaNs), and sliding-
# window NL-means must stay within 1e-9 of the direct reference with the
# same bits on one core and three.
fuzz-stats:
	$(GO) test -run '^$$' -fuzz 'FuzzFDRRanks' -fuzztime 10s ./internal/fdr
	$(GO) test -run '^$$' -fuzz 'FuzzDenoise' -fuzztime 10s ./internal/nlmeans

# Short fuzz pass over the in-tree DEFLATE encoder: whatever the payload,
# compress/flate and compress/gzip must inflate the member back to it,
# and the member must fit the BGZF limits.
fuzz-deflate:
	$(GO) test -run '^$$' -fuzz 'FuzzDeflateBlock' -fuzztime 10s ./internal/bgzf

# Short fuzz passes over the decode side: unwrapBlock against
# compress/flate on arbitrary DEFLATE streams (the same bytes, or both
# refuse), and whole BGZF streams written, damaged and read back. In ci
# because every BGZF read goes through the decoder's hand-tuned loop.
fuzz-inflate:
	$(GO) test -run '^$$' -fuzz 'FuzzInflateMember' -fuzztime 10s ./internal/bgzf
	$(GO) test -run '^$$' -fuzz 'FuzzBGZFRoundTrip' -fuzztime 10s ./internal/bgzf

# Re-measure DESIGN.md's codec frontier (compress/flate levels against
# the in-tree full search at four chain depths and the in-tree payload
# planner the product runs, one thread, a few minutes).
deflate-frontier:
	BGZF_FRONTIER=1 GOMAXPROCS=1 $(GO) test -v -count=1 -run 'TestDeflateFrontier' -timeout 30m ./internal/bgzf

# Short fuzz passes over the BAI and BAIX readers: corrupt index bytes
# must error, never panic, and every accepted index must re-serialise
# byte-for-byte; an accepted BAIX must also walk a matching BAMX file or
# be rejected as out of range.
fuzz-index:
	$(GO) test -run '^$$' -fuzz 'FuzzReadIndex' -fuzztime 10s ./internal/bam
	$(GO) test -run '^$$' -fuzz 'FuzzBAIXParse' -fuzztime 10s ./internal/bamx

# Short fuzz pass over the PAMX footer decoder: corrupt footers must
# error, never panic, and every accepted footer must re-encode
# byte-for-byte and survive the bounds check without panicking.
fuzz-pamx:
	$(GO) test -run '^$$' -fuzz 'FuzzPAMXFooter' -fuzztime 10s ./internal/formats/pamx

# Short fuzz pass over the job-spec decoder (engine.DecodeSpec; the fuzz
# target sits with the daemon's wire-contract tests): arbitrary
# submission bodies must yield a structured error or a spec that
# re-encodes to a fixed point — never a panic.
fuzz-daemon:
	$(GO) test -run '^$$' -fuzz 'FuzzJobSpec' -fuzztime 10s ./internal/daemon

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when the binary is on PATH,
# otherwise skip with a notice (CI images without it must still pass).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# No product binary may link code written to be slow or to model the
# paper's cluster: the Picard-style baseline, the experiment harness and
# the analytic cluster model belong to ngsbench alone. And conv reads
# binary containers only through shard.Provider: it may write BAMX
# (writeIndexed, CompressBAMXFile) but never opens one or its BAIX. And
# the product has no stdlib codec: DEFLATE, both ways, is internal/bgzf's
# own, so no non-test file under internal/, cmd/ or the module root
# imports compress/* (compress/flate is the tests' oracle). And SAM text
# has one record parser and one renderer (sam.ParseRecordIntoBytes,
# Record.AppendTo; a body renders through formats.BodyEncoder): no
# string twin comes back, and BAM tag values become text only in
# internal/bam (no float32 tag decode, and no strconv render of an aux
# value, outside it), and SAM alignment lines
# have one reader (sam.Source's batch line engine): no sam.NewReader or
# LineScanner comes back, and no product file of internal/sam, conv,
# flagstat or sorter opens a bufio.Scanner. And
# internal/bgzf has one Reader and one Writer, where blocks run being a
# field: no parallel twin type or interface to switch between twins
# comes back. And no product code decodes BAM through
# bam.NewParallelScanner, which only bench/ still calls. And the
# converter streams: no non-test file under internal/conv holds records
# as a []sam.Record (SAM preprocessing spills encoded records instead).
# And numbers cross ranks one way, through internal/mpi's generic
# collectives: no non-test file outside internal/mpi hand-codes float64
# bits, and no Go file names a typed Comm helper they replaced. And a
# codec worker count is read in internal/bgzf alone: no Go file names a
# placement switch it replaced, and no non-test file outside
# internal/bgzf, bench/ and the bench-only internal/bam/scanner.go
# resolves the adaptive count or submits to the shared pool itself. And
# a job's one parallelism setting is its ranks: no worker count comes
# back as an engine.Spec JSON field or a command-line flag, and no flag
# help quotes bgzf's worker rule (WorkersUsage); a container is a
# -format, so no -preprocess flag comes back either. And a .bam is read
# through its provider like every other container: internal/engine
# calls neither conv.ConvertBAM (a temporary BAMX) nor
# conv.ConvertBAMSequential, no product code outside internal/bam and
# bench/ builds a BAI in memory (a .bam with no .bai is one stream
# shard), and shard.BAMProvider's stream shard is the one product
# reader of a BAM body stream (bam.NewBodyScanner). And the statistics
# module runs as engine jobs on the session's launcher: no non-test file
# under cmd/ imports internal/nlmeans or internal/fdr or starts an
# in-process world with mpi.Run.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/seqconvert ./cmd/seqconvd ./cmd/samstat ./cmd/samsort ./cmd/ngsstat ./cmd/bamxtool | grep -E 'internal/(picard|experiments|cluster)$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: product binaries depend on:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls internal/conv/*.go | grep -v _test | xargs grep -n 'bamx\.\(Open\|OpenCompressed\|ParseIndex\|BuildIndex\)' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/conv reads BAMX past shard.Provider:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rln '"compress/' internal cmd *.go --include=*.go | grep -v '_test\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a stdlib codec (compress/*) imported by product code:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'func parseRecordInto(\|AppendText(' internal --include=*.go | grep -v _test || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a second SAM record parser or renderer:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$( { grep -rn 'math\.Float32frombits' --include=*.go internal cmd *.go; \
		grep -rnE 'strconv\.(Format|Append)(Int|Uint|Float)\(.*\b[aA]ux' --include=*.go internal cmd *.go; } | grep -v '_test\.go:' | grep -v '^internal/bam/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a BAM tag value rendered as text outside internal/bam (Body.AppendTags and DecodeRecord are the ways):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls internal/bgzf/*.go | grep -v _test | xargs grep -nE 'type (ParallelReader|ParallelWriter|BlockReader|BlockWriter|BlockSource)\b' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a second BGZF reader or writer type in internal/bgzf:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$( { ls internal/sam/*.go | grep -v _test | xargs grep -n 'func NewReader('; \
		grep -rn 'LineScanner' --include=*.go . | grep -v '_test\.go:'; \
		ls internal/sam/*.go internal/conv/*.go internal/flagstat/*.go internal/sorter/*.go | grep -v _test | xargs grep -n 'bufio\.NewScanner'; } || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a second SAM line reader beside sam.Source's batch line engine:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'bam\.NewParallelScanner' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: bam.NewParallelScanner called outside bench/:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls internal/conv/*.go | grep -v _test | xargs grep -n '\[\]sam\.Record' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/conv holds records in a []sam.Record:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'math\.Float64\(from\)\?bits' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./internal/mpi/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: float64 bits hand-coded outside internal/mpi:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\b(ReduceFloat64Sum|ReduceInt64Sum|AllreduceInt64Sum|SendInt64|RecvInt64|SendFloat64s|RecvFloat64s)\b' --include=*.go . || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a typed mpi.Comm helper in place of the generic collectives:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\b(WithSharedCodec|NewSharedParallelWriter|BuildFileIndexWorkers|sharedCodec|bamWriterOpts)\b' --include=*.go . || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a codec placement switch outside internal/bgzf's worker rule:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'bgzf\.AutoWorkers\(\)|SharedPool\(\)\.Submit' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./internal/bgzf/' | grep -v '^\./bench/' | grep -v '^\./internal/bam/scanner\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a codec worker count resolved outside internal/bgzf:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\b(bam|pamx)\.NewWriter\(|bamx\.WriteBodies\(' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./internal/shard/' | grep -v '^\./internal/conv/sink\.go:' | grep -v '^\./internal/simdata/' | grep -v '^\./bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a container writer opened outside shard.Create:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/formats/pamx | grep -x 'parseq/internal/bamx' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/formats/pamx imports internal/bamx (rewrites go through shard.Rewrite)"; exit 1; \
	fi
	@bad=$$( { grep -rnE 'json:"(codec_workers|parse_workers|workers)[",]' --include=*.go internal/engine; \
		grep -rnE '(Int|Uint|Int64|Uint64|Bool|String|Float64|Duration|Func|BoolFunc|Text)(Var)?\(([^,()]+, *)?"(codec-workers|parse-workers|pre-p|workers|w|preprocess)"' --include=*.go cmd; \
		grep -rn 'WorkersUsage' --include=*.go .; } | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a worker count or -preprocess back on the job surface (a job is input, format and ranks):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'conv\.ConvertBAM(Sequential)?\(' --include=*.go internal/engine | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/engine converts a .bam around its shard provider:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'bam\.BuildFileIndex(' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./internal/bam/' | grep -v '^\./bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a BAI built in memory (a .bam with no .bai is one stream shard):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'bam\.NewBodyScanner(' --include=*.go . | grep -v '_test\.go:' | grep -v '^\./internal/shard/provider_bam\.go:' | grep -v '^\./bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a BAM body stream read outside shard.BAMProvider's stream shard:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '"parseq/internal/(nlmeans|fdr)"|mpi\.Run\(' --include=*.go cmd | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a command runs the statistics module or an in-process world around engine.Run:"; echo "$$bad"; exit 1; \
	fi

# A ratchet on code no binary runs: build every command and example with
# inlining off, read their symbols with `go tool nm`, and fail on any
# non-test function of parseq or internal/ that none of them links and
# that linkcheck.allow does not name with a reason, and on an allowlist
# line whose function is linked again or gone. A function only tests
# call belongs in a _test.go file.
linkcheck:
	@set -e; export LC_ALL=C; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/bin"; $(GO) build -gcflags=all=-l -o "$$tmp/bin/" ./cmd/... ./examples/...; \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b"; done | awk '{ \
		name = $$3; for (i = 4; i <= NF; i++) name = name " " $$i; \
		if (name !~ /^parseq(\/internal\/|\.)/) next; \
		out = ""; d = 0; \
		for (i = 1; i <= length(name); i++) { c = substr(name, i, 1); \
			if (c == "[") d++; else if (c == "]") d--; else if (d == 0) out = out c } \
		gsub(/\(\*/, "", out); gsub(/\)/, "", out); print out }' | sort -u > "$$tmp/linked"; \
	$(GO) list -f '{{$$p := .ImportPath}}{{range .GoFiles}}{{$$p}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... | \
	grep -E '^parseq(/internal/| )' | while read -r pkg file; do \
		awk -v pkg="$$pkg" '/^func / { s = substr($$0, 6); recv = ""; \
			if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
				n = split(r, f, " "); recv = f[n]; sub(/^\*/, "", recv); sub(/\[.*/, "", recv); recv = recv "." } \
			match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH); \
			if (name != "init" && name != "_") print pkg "." recv name }' "$$file"; \
	done | sort -u > "$$tmp/declared"; \
	grep '^parseq' linkcheck.allow | awk '{ print $$1 }' | sort > "$$tmp/allowed"; \
	comm -23 "$$tmp/declared" "$$tmp/linked" > "$$tmp/unlinked"; \
	bad=$$(comm -23 "$$tmp/unlinked" "$$tmp/allowed"); \
	stale=$$(comm -13 "$$tmp/unlinked" "$$tmp/allowed"); \
	if [ -n "$$bad" ]; then \
		echo "linkcheck: no binary links these, and linkcheck.allow gives no reason:"; echo "$$bad"; fi; \
	if [ -n "$$stale" ]; then \
		echo "linkcheck: linkcheck.allow names these, which are linked or gone:"; echo "$$stale"; fi; \
	if [ -n "$$bad$$stale" ]; then exit 1; fi; \
	echo "linkcheck: OK ($$(wc -l < "$$tmp/allowed") allowed)"

# Non-test lines the way every deletion PR since PR 15 has counted them
# (raw lines, comments included), per package and for the sets ROADMAP.md
# tracks, so a PR's CHANGES.md entry and the next one quote one number.
LOC_RECORDS = bam bamx conv formats/pamx shard flagstat hist engine
LOC_SAMTEXT = sam conv hist
LOC_REPRO = experiments cluster picard
LOC_CODEC = bgzf bamx formats/pamx
loc:
	@count() { ls $$1/*.go | grep -v _test | xargs cat | wc -l; }; \
	sum() { t=0; for p in $$@; do t=$$((t + $$(count internal/$$p))); done; echo $$t; }; \
	for d in internal/* internal/formats/pamx cmd/*; do printf '%-26s %6d\n' $$d $$(count $$d); done; \
	printf '%-26s %6d  (%s)\n' 'record-source set' $$(sum $(LOC_RECORDS)) '$(LOC_RECORDS)'; \
	printf '%-26s %6d  (%s)\n' 'SAM text set' $$(sum $(LOC_SAMTEXT)) '$(LOC_SAMTEXT)'; \
	printf '%-26s %6d  (%s + cmd/ngsbench)\n' 'reproduction set' $$(( $$(sum $(LOC_REPRO)) + $$(count cmd/ngsbench) )) '$(LOC_REPRO)'; \
	printf '%-26s %6d  (%s)\n' 'codec set' $$(sum $(LOC_CODEC)) '$(LOC_CODEC)'; \
	printf '%-26s %6d\n' 'non-test Go outside bench/' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | wc -l)

# One iteration of every surviving testing.B benchmark: catches bit-rot
# without paying for a measurement run. Each one is kept because a test
# reads it or bench/ has no probe for that layer (see the comment on
# it); measuring everything else is `go run ./bench` (bench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 1x ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkKernSpeedup' -benchtime 1x ./internal/kern
	$(GO) test -run '^$$' -bench 'BenchmarkInflate' -benchtime 1x ./internal/bgzf

# The paper reproduction path end to end at smoke scale: every table and
# figure must still come out of one ngsbench run.
experiments-smoke:
	@n=$$($(GO) run ./cmd/ngsbench -reads 1500 -bins 3000 -sims 10 | grep -c '^== '); \
	[ "$$n" -eq 9 ] || { echo "experiments-smoke: $$n report headers, want 9"; exit 1; }; \
	echo "experiments-smoke: OK"

# End-to-end telemetry check: a real conversion run must produce a
# metrics snapshot with the documented schema (MPI wait, codec
# pipeline gauges, phase walls) and a non-empty trace.
metrics-smoke:
	$(GO) test -run 'TestMetricsSchema' -count=1 ./internal/obsflag

# Live-endpoint check: a -metrics-addr session must serve a scrapeable
# /metrics and /progress and a SIGTERM-killed run must still flush its
# profiles; the subprocess tests cover the 4-rank gather end to end.
metrics-endpoint-smoke:
	$(GO) test -run 'TestMetricsEndpointSmoke|TestSIGTERMFlushesProfiles' -count=1 ./internal/obsflag
	$(GO) test -run 'TestSubprocessObs' -count=1 ./internal/mpinet

# End-to-end daemon check with the real binaries: build seqconvd,
# ngsbench, seqconvert, samstat, ngsstat and ngsgen, start the daemon on
# a loopback port, upload a generated SAM and its chr1 histogram, and
# verify three jobs' streamed results byte-identical to the CLIs that
# share the daemon's engine — a BED conversion against seqconvert's
# file, a flagstat against samstat's stdout, an NL-means denoise against
# ngsstat's file. SIGTERM then drains the daemon, which must exit
# 128+15.
daemon-endpoint-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	trap '[ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/seqconvd ./cmd/ngsbench ./cmd/seqconvert ./cmd/samstat ./cmd/ngsstat ./cmd/ngsgen; \
	"$$tmp/ngsgen" -reads 2000 -format sam -out "$$tmp/tiny" >/dev/null; \
	"$$tmp/seqconvert" -in "$$tmp/tiny.sam" -format bed -out "$$tmp" -prefix ref >/dev/null; \
	"$$tmp/samstat" -in "$$tmp/tiny.sam" > "$$tmp/ref.flagstat"; \
	"$$tmp/ngsstat" -op hist -in "$$tmp/tiny.sam" -rname chr1 -out "$$tmp/tiny.hist.tsv" >/dev/null; \
	"$$tmp/ngsstat" -op nlmeans -in "$$tmp/tiny.hist.tsv" -out "$$tmp/ref.denoised.tsv" >/dev/null; \
	"$$tmp/seqconvd" -addr 127.0.0.1:0 -spool "$$tmp/spool" 2> "$$tmp/seqconvd.log" & pid=$$!; \
	base=""; \
	for i in $$(seq 1 100); do \
		base=$$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$$tmp/seqconvd.log"); \
		[ -n "$$base" ] && break; sleep 0.1; \
	done; \
	[ -n "$$base" ] || { echo "daemon-endpoint-smoke: seqconvd never came up"; cat "$$tmp/seqconvd.log"; exit 1; }; \
	"$$tmp/ngsbench" -daemon "$$base" \
		-daemon-spec '{"op":"convert","format":"bed"}' \
		-daemon-in "$$tmp/tiny.sam" -daemon-out "$$tmp/got.bed" \
		-daemon-verify "$$tmp/ref_p000.bed"; \
	"$$tmp/ngsbench" -daemon "$$base" \
		-daemon-spec '{"op":"flagstat"}' \
		-daemon-in "$$tmp/tiny.sam" -daemon-out "$$tmp/got.flagstat" \
		-daemon-verify "$$tmp/ref.flagstat"; \
	"$$tmp/ngsbench" -daemon "$$base" \
		-daemon-spec '{"op":"nlmeans","r":20,"l":15,"sigma":10}' \
		-daemon-in "$$tmp/tiny.hist.tsv" -daemon-out "$$tmp/got.denoised.tsv" \
		-daemon-verify "$$tmp/ref.denoised.tsv"; \
	kill -TERM "$$pid"; \
	wait "$$pid" && rc=0 || rc=$$?; pid=""; \
	[ "$$rc" -eq 143 ] || { echo "daemon-endpoint-smoke: seqconvd exit $$rc, want 143"; cat "$$tmp/seqconvd.log"; exit 1; }; \
	echo "daemon-endpoint-smoke: OK"

# Distributed-world check with the real binaries: TestWorldSmoke builds
# seqconvert, samstat and ngsgen, picks a free loopback coordinator
# address and runs BAMX→BED, BAM -format pamx, SAM -format bamx and
# samstat over a BAM with its .bai on two-process TCP worlds against the
# same jobs in one process. Rank 0 must print the in-process summary (the
# world's record count and files, or samstat's report), rank 1 nothing,
# and the output directory must hold the in-process files, byte for
# byte, and nothing else. Over a truncated BAM, -format bed and -format
# pamx must fail on both processes, rank 1 still printing nothing.
world-smoke:
	$(GO) test -run '^TestWorldSmoke$$' -count=1 ./cmd/seqconvert

ci: vet staticcheck fmt-check build deps-check linkcheck race bench-smoke experiments-smoke metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke world-smoke fuzz-inflate
	@echo "ci: all checks passed"
