# parseq build/test entry points. `make ci` is the gate every change
# must pass: vet, staticcheck (when installed), formatting, build, the
# product-binary dependency check, the full race-enabled test suite, a
# one-iteration smoke run of the five surviving testing.B benchmarks
# (obs per-op costs, the kern scalar-vs-SWAR ratio), the paper
# reproduction smoke, and the metrics-schema and live-endpoint smoke
# tests. Measuring is `go run ./bench`.

GO ?= go

.PHONY: all build test race race-convert vet staticcheck fmt-check deps-check loc bench-smoke experiments-smoke metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke fuzz-frame fuzz-kern fuzz-stats fuzz-deflate deflate-frontier fuzz-index fuzz-pamx fuzz-daemon ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The one fast pre-commit subset of `race`: the converter runtime
# (sources, sinks, the batch line engine), the SAM analyses that share
# its scanners, the sorter that keeps sam.Reader's byte-parsed records,
# the shared deflate pool and the parpipe plumbing under them, and the
# engine and daemon that drive them concurrently. `ci` runs the full
# sweep.
race-convert:
	$(GO) test -race -count=1 ./internal/conv ./internal/sam ./internal/hist ./internal/flagstat ./internal/sorter ./internal/bgzf ./internal/parpipe ./internal/engine ./internal/daemon

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

# Re-measure DESIGN.md's codec frontier (compress/flate levels against
# the in-tree encoder at four chain depths, one thread, a few minutes).
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
# every DEFLATE call, either way, lives in internal/bgzf: no other
# non-test file imports compress/flate. And SAM text
# has one record parser and one renderer (sam.ParseRecordIntoBytes,
# Record.AppendTo): no string twin comes back. And internal/bgzf has one
# Reader and one Writer, where blocks run being a field: no parallel
# twin type or interface to switch between twins comes back.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/seqconvert ./cmd/seqconvd ./cmd/samstat ./cmd/samsort ./cmd/ngsstat ./cmd/bamxtool | grep -E 'internal/(picard|experiments|cluster)$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: product binaries depend on:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls internal/conv/*.go | grep -v _test | xargs grep -n 'bamx\.\(Open\|OpenCompressed\|ParseIndex\|BuildIndex\)' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/conv reads BAMX past shard.Provider:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rln '"compress/flate"' internal cmd --include=*.go | grep -v _test | grep -v '^internal/bgzf/' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: compress/flate imported outside internal/bgzf:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'func parseRecordInto(\|AppendText(' internal --include=*.go | grep -v _test || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a second SAM record parser or renderer:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(ls internal/bgzf/*.go | grep -v _test | xargs grep -nE 'type (ParallelReader|ParallelWriter|BlockReader|BlockWriter|BlockSource)\b' || true); \
	if [ -n "$$bad" ]; then \
		echo "deps-check: a second BGZF reader or writer type in internal/bgzf:"; echo "$$bad"; exit 1; \
	fi

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
# ngsbench, seqconvert, samstat and ngsgen, start the daemon on a
# loopback port, upload a generated SAM, and verify two jobs' streamed
# results byte-identical to the CLIs that share the daemon's engine —
# a BED conversion against seqconvert's file, a flagstat against
# samstat's stdout. SIGTERM then drains the daemon, which must exit
# 128+15.
daemon-endpoint-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	trap '[ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/seqconvd ./cmd/ngsbench ./cmd/seqconvert ./cmd/samstat ./cmd/ngsgen; \
	"$$tmp/ngsgen" -reads 2000 -format sam -out "$$tmp/tiny" >/dev/null; \
	"$$tmp/seqconvert" -in "$$tmp/tiny.sam" -format bed -out "$$tmp" -prefix ref >/dev/null; \
	"$$tmp/samstat" -in "$$tmp/tiny.sam" > "$$tmp/ref.flagstat"; \
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
	kill -TERM "$$pid"; \
	wait "$$pid" && rc=0 || rc=$$?; pid=""; \
	[ "$$rc" -eq 143 ] || { echo "daemon-endpoint-smoke: seqconvd exit $$rc, want 143"; cat "$$tmp/seqconvd.log"; exit 1; }; \
	echo "daemon-endpoint-smoke: OK"

ci: vet staticcheck fmt-check build deps-check race bench-smoke experiments-smoke metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke
	@echo "ci: all checks passed"
