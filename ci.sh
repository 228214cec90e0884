#!/bin/sh
# The repository's check gauntlet. Run before every push:
#
#   ./ci.sh           # build, vet, race-enabled tests, coverage, fuzz smoke
#   ./ci.sh -short    # same, but tests run with -short
#
# CONFANON_SKIP_FUZZ=1 skips the fuzz smoke (e.g. on very slow machines).
#
# The golden corpus under testdata/golden/ makes the test step a
# byte-level regression check on the anonymizer's (salt, input) → output
# contract, so a green run also means no mapping drift.
set -eu
cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat these files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# cmd/confperf (the performance benchmark) is its own module, so the
# root build, vet and test steps never reach it. Its smoke test runs
# every workload once on a small corpus and checks each against its
# reference — corpus-strict compares ParallelCorpusContext at two
# workers with CorpusContext — so an API or behaviour change that breaks
# the benchmark fails here instead of at its next run.
echo "== (cd cmd/confperf && go vet ./... && go test ./...)"
(cd cmd/confperf && go vet ./... && go test ./...)

echo "== go vet ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack && go test -race ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack"
go vet ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack
go test -race ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack

# Concurrency gauntlet: the packages whose correctness depends on the
# Program/Session split's locking — the shaped tree's two-phase design,
# the session worker pool and rewrite memo, the portal's per-salt
# sessions, the mapping ledger's append/commit serialization, and the
# job queue's worker pool — run twice under the race detector so
# scheduling varies. The first line runs every test in the jobs and
# portal packages: the restart-mid-job chaos test (the portal is killed
# on both sides of a ledger commit and must resume to byte-identical
# output), the drain and readiness tests, and the strict-gate test that
# pins a job's quarantine set to the synchronous upload's.
echo "== concurrency gauntlet: go test -race -count=2 (ipanon, anonymizer, store, jobs, portal, bench, parallel batch)"
go test -race -count=2 ./internal/ipanon ./internal/anonymizer ./internal/store ./internal/jobs ./internal/portal ./internal/bench
go test -race -count=2 -run 'Parallel|Chaos|Session|Trace|Store|Incremental|Equivalence' .

# The race detector and the coverage profile run as two steps: -race
# forces -covermode=atomic, and atomic counters under the race detector
# made internal/cregex's oracle tests run about seven times slower.
echo "== go test -race ./... $*"
go test -race "$@" ./...

echo "== go test -coverprofile=coverage.out ./... $*"
go test -coverprofile=coverage.out "$@" ./...

# Coverage ratchet: the total statement coverage must not fall below
# coverage_baseline.txt (set slightly under the measured total to absorb
# noise). Raise the baseline when coverage meaningfully improves; never
# lower it to make a red run green.
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub("%","",$NF); print $NF}')
floor=$(cat coverage_baseline.txt)
echo "== coverage ratchet: total ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
	echo "coverage ${total}% fell below the ${floor}% floor" >&2
	exit 1
}

# Allocation ratchet: allocations per input line of the tokenizer, the
# engine (both IP schemes) and the leak report on a fixed corpus must
# not exceed allocs_baseline.txt by more than 0.01. The test skips under
# -race, where allocation counts differ, so it runs here without it.
# Lower a baseline when a change removes allocations; never raise one to
# make a red run green.
echo "== allocation ratchet: go test -run '^TestAllocsPerLine$' ."
go test -run '^TestAllocsPerLine$' .

# Ledger layer rows: BenchmarkLedgerOpen (replaying one owner's ledger)
# and BenchmarkUseStore (restoring it into a Session) run once, so a
# change to the store or restore API that breaks them fails here; with
# -benchmem every log shows their B/op and allocs/op.
echo "== go test -run '^\$' -bench 'LedgerOpen|UseStore' -benchtime 1x -benchmem ."
go test -run '^$' -bench 'LedgerOpen|UseStore' -benchtime 1x -benchmem .

# Reproduction harness row: BenchmarkPopulationStudy (the one pass over
# the standard population behind E4, E5, E6 and E8) runs once, so a
# change that breaks the harness or fails one of its checks fails here.
echo "== go test -run '^\$' -bench 'PopulationStudy' -benchtime 1x ."
go test -run '^$' -bench 'PopulationStudy' -benchtime 1x .

# Observability drift gate (warn-only): re-run the golden corpus, emit a
# run report, and diff it against the checked-in baseline with conftrace.
# Rule-hit or outcome drift means the (salt, input) → decision contract
# moved — investigate before pushing; stage-latency drift is machine
# noise. The step warns but never fails the build (-fail-on-drift off);
# regenerate the baseline together with the golden outputs when a rule
# change is intentional:
#   go run ./cmd/confanon -salt golden-v1 -in testdata/golden/in \
#     -out /tmp/out -metrics-out testdata/baseline_report.json -leak-report=false
echo "== conftrace drift check vs testdata/baseline_report.json (warn-only)"
driftdir=$(mktemp -d)
go run ./cmd/confanon -salt golden-v1 -in testdata/golden/in \
	-out "$driftdir/out" -metrics-out "$driftdir/report.json" -leak-report=false >/dev/null
go run ./cmd/conftrace testdata/baseline_report.json "$driftdir/report.json"
rm -rf "$driftdir"

# Privacy/utility bench gate (hard-fail): run the benchmark harness over
# the small committed corpus shape and diff the scores against
# testdata/baseline_bench.json. Every score is deterministic in the
# seed, so any drift here is a real behavior change: privacy scores
# worsening (re-identification, fingerprint survival, identity leaks
# rising) or utility scores dropping (design equivalence, clean
# characteristics) beyond 1pp fails the build. Throughput is machine
# noise and only reported. Regenerate the baseline when a score change
# is intentional and understood:
#   go run ./cmd/confbench -seed 1 -routers 60 -networks 4 \
#     -out testdata/baseline_bench.json
echo "== confbench privacy/utility gate vs testdata/baseline_bench.json (hard-fail on drift)"
benchdir=$(mktemp -d)
go run ./cmd/confbench -seed 1 -routers 60 -networks 4 -q -out "$benchdir/bench.json"
go run ./cmd/conftrace -fail-on-drift testdata/baseline_bench.json "$benchdir/bench.json"
rm -rf "$benchdir"

# Rule-pack gate: every shipped example pack must parse, pass the
# document checks, and merge against this build's built-in inventory.
# The examples pin their fingerprints, so any edit to a pack without
# re-pinning — or any canonical-encoding change that silently moves
# every fingerprint (and with it the bench policy fingerprints) — fails
# here as a declared-fingerprint mismatch.
echo "== confvalidate -check-pack examples/rulepacks/*"
packargs=""
for p in examples/rulepacks/*.json examples/rulepacks/*.toml; do
	packargs="$packargs -check-pack $p"
done
# shellcheck disable=SC2086
go run ./cmd/confvalidate $packargs

# Short coverage-guided fuzz pass over the parsers that sit in front of
# the anonymizer, over the tokenizer's Fields/Join round trip, its
# NextWord iterator against Fields, AppendFields into a dirty buffer
# against Fields (FuzzAppendFields), the banner word counter against
# strings.Fields (FuzzCountFields) and the NextSegment iterator against
# SplitWord (FuzzNextSegmentMatchesSplitWord), over the leak report's
# in-place scan against a Split/Fields reference (same leaks), over the
# regexp language enumeration against direct NFA simulation, over the
# minimal-DFA regexp form (FuzzMinimalRegexp: the same pattern twice,
# parsing back to exactly the language), over the corpus driver's
# census → replay → fill against the serial reference (byte-identical
# outputs, same quarantine set), over the incremental driver against a full run from the same
# restored state after random edit scripts (FuzzIncrementalMatchesFull:
# same outputs, statuses and quarantine set), over the ledger's
# byte-level line decoder against encoding/json (same Record, same
# class of error), over ledger replay against a reference replay
# (FuzzOpenMatchesReference: the same State, or ErrCorrupt at the same
# line, from Open and, for a program that ends in a single segment read
# as a snapshot blob, from DecodeState), over the file cache decoder
# (no input panics), and over the shaped tree's resumed node walk
# against a walk from the root (FuzzTreeResumeMatchesRootWalk: the same
# images, mapping and remap count for any call sequence). Crashers are
# persisted under testdata/fuzz/ and then replayed by the ordinary test
# step above, so a find here becomes a permanent regression test.
if [ "${CONFANON_SKIP_FUZZ:-0}" != "1" ]; then
	echo "== fuzz smoke: internal/config FuzzParse (10s)"
	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/config
	echo "== fuzz smoke: internal/cregex FuzzParsePattern (10s)"
	go test -run '^$' -fuzz '^FuzzParsePattern$' -fuzztime 10s ./internal/cregex
	echo "== fuzz smoke: internal/cregex FuzzLanguageMatchesNFA (10s)"
	go test -run '^$' -fuzz '^FuzzLanguageMatchesNFA$' -fuzztime 10s ./internal/cregex
	echo "== fuzz smoke: internal/cregex FuzzMinimalRegexp (10s)"
	go test -run '^$' -fuzz '^FuzzMinimalRegexp$' -fuzztime 10s ./internal/cregex
	echo "== fuzz smoke: internal/token FuzzFieldsJoin (10s)"
	go test -run '^$' -fuzz '^FuzzFieldsJoin$' -fuzztime 10s ./internal/token
	echo "== fuzz smoke: internal/token FuzzNextWordMatchesFields (10s)"
	go test -run '^$' -fuzz '^FuzzNextWordMatchesFields$' -fuzztime 10s ./internal/token
	echo "== fuzz smoke: internal/token FuzzAppendFields (10s)"
	go test -run '^$' -fuzz '^FuzzAppendFields$' -fuzztime 10s ./internal/token
	echo "== fuzz smoke: internal/token FuzzCountFields (10s)"
	go test -run '^$' -fuzz '^FuzzCountFields$' -fuzztime 10s ./internal/token
	echo "== fuzz smoke: internal/token FuzzNextSegmentMatchesSplitWord (10s)"
	go test -run '^$' -fuzz '^FuzzNextSegmentMatchesSplitWord$' -fuzztime 10s ./internal/token
	echo "== fuzz smoke: internal/anonymizer FuzzLeakScan (10s)"
	go test -run '^$' -fuzz '^FuzzLeakScan$' -fuzztime 10s ./internal/anonymizer
	echo "== fuzz smoke: FuzzParallelMatchesSerial (10s)"
	go test -run '^$' -fuzz '^FuzzParallelMatchesSerial$' -fuzztime 10s .
	echo "== fuzz smoke: FuzzIncrementalMatchesFull (10s)"
	go test -run '^$' -fuzz '^FuzzIncrementalMatchesFull$' -fuzztime 10s .
	echo "== fuzz smoke: internal/store FuzzDecodeLine (10s)"
	go test -run '^$' -fuzz '^FuzzDecodeLine$' -fuzztime 10s ./internal/store
	echo "== fuzz smoke: internal/store FuzzOpenMatchesReference (10s)"
	go test -run '^$' -fuzz '^FuzzOpenMatchesReference$' -fuzztime 10s ./internal/store
	echo "== fuzz smoke: FuzzDecodeCorpusCache (10s)"
	go test -run '^$' -fuzz '^FuzzDecodeCorpusCache$' -fuzztime 10s .
	echo "== fuzz smoke: internal/ipanon FuzzTreeResumeMatchesRootWalk (10s)"
	go test -run '^$' -fuzz '^FuzzTreeResumeMatchesRootWalk$' -fuzztime 10s ./internal/ipanon
fi

echo "== ok"
