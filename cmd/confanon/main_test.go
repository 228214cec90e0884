package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"confanon"
)

const cleanConf = "hostname r9\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n"

// leakyConf seeds the §6.1 leak: the second 7018 sits in a context no
// rule recognizes and survives anonymization.
const leakyConf = "router bgp 7018\nodd command with 7018 tail\n"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, strings.NewReader(""), &out, &errb)
	return code, out.String(), errb.String()
}

func writeInput(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Errorf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-salt", "s"); code != exitUsage {
		t.Errorf("missing dirs: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-bogus-flag"); code != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, exitUsage)
	}
}

func TestRunCleanCorpusExitsZero(t *testing.T) {
	in := writeInput(t, map[string]string{"r1.conf": cleanConf})
	out := t.TempDir()
	code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out, "-rename=false")
	if code != exitClean {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitClean, stderr)
	}
	if _, err := os.Stat(filepath.Join(out, "r1.conf")); err != nil {
		t.Errorf("output file missing: %v", err)
	}
	if !strings.Contains(stderr, "leak report: clean") {
		t.Errorf("stderr lacks clean leak report:\n%s", stderr)
	}
}

func TestRunStrictQuarantinesExactlyLeakingFile(t *testing.T) {
	in := writeInput(t, map[string]string{"clean.conf": cleanConf, "leaky.conf": leakyConf})
	out := t.TempDir()
	qdir := filepath.Join(t.TempDir(), "quarantine")
	code, _, stderr := runCLI(t,
		"-salt", "s", "-in", in, "-out", out, "-rename=false",
		"-strict", "-quarantine", qdir)
	if code != exitWithheld {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitWithheld, stderr)
	}
	if _, err := os.Stat(filepath.Join(out, "clean.conf")); err != nil {
		t.Errorf("clean file not published: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "leaky.conf")); err == nil {
		t.Error("quarantined file was published")
	}
	got, err := os.ReadFile(filepath.Join(qdir, "leaky.conf"))
	if err != nil {
		t.Fatalf("original not copied to quarantine: %v", err)
	}
	if string(got) != leakyConf {
		t.Error("quarantined copy is not the original bytes")
	}
	if fi, err := os.Stat(filepath.Join(qdir, "leaky.conf")); err == nil && fi.Mode().Perm() != 0o600 {
		t.Errorf("quarantined copy mode %v, want 0600", fi.Mode().Perm())
	}
	if !strings.Contains(stderr, "quarantined leaky.conf") {
		t.Errorf("stderr lacks quarantine notice:\n%s", stderr)
	}
}

func TestRunNonStrictLeakReportStillExitsOne(t *testing.T) {
	in := writeInput(t, map[string]string{"leaky.conf": leakyConf})
	out := t.TempDir()
	code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out, "-rename=false")
	if code != exitWithheld {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitWithheld, stderr)
	}
	// Fail-open legacy behavior: the file IS published, the report warns.
	if _, err := os.Stat(filepath.Join(out, "leaky.conf")); err != nil {
		t.Errorf("non-strict mode must still publish: %v", err)
	}
}

func TestRunStreamMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-salt", "s", "-stateless", "-"},
		strings.NewReader(cleanConf), &out, &errb)
	if code != exitClean {
		t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
	}
	if out.Len() == 0 || strings.Contains(out.String(), "r9") {
		t.Errorf("stream output wrong: %q", out.String())
	}
}

func TestRunStreamStrictWithholdsLeakyOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-salt", "s", "-stateless", "-strict", "-"},
		strings.NewReader(leakyConf), &out, &errb)
	if code != exitWithheld {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitWithheld, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("quarantined stream leaked %d bytes to stdout", out.Len())
	}
	if !strings.Contains(errb.String(), "quarantined") {
		t.Errorf("stderr lacks quarantine reason:\n%s", errb.String())
	}
}

// TestRunStreamStrictWithholdsHalfHashedIPv6: the basic method hashes
// one group of an IPv6 address it cannot map, and what is left still
// names the owner's /48, so -strict withholds the line.
func TestRunStreamStrictWithholdsHalfHashedIPv6(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-salt", "x", "-strict", "-"},
		strings.NewReader("ntp server 2620:0:861:ed1a::1\n"), &out, &errb)
	if code != exitWithheld {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitWithheld, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("quarantined stream published %q", out.String())
	}
	if !strings.Contains(errb.String(), "ip6") {
		t.Errorf("stderr names no ip6 leak:\n%s", errb.String())
	}
}

func TestRunCancelledContextIsFatal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := writeInput(t, map[string]string{"r1.conf": cleanConf})
	var out, errb bytes.Buffer
	code := run(ctx, []string{"-salt", "s", "-in", in, "-out", t.TempDir()}, strings.NewReader(""), &out, &errb)
	if code != exitFatal {
		t.Errorf("exit %d, want %d", code, exitFatal)
	}
}

// TestRunMetricsOut: -metrics-out writes a run report whose headline
// counts match the run and whose counter snapshot carries the engine
// series.
func TestRunMetricsOut(t *testing.T) {
	in := writeInput(t, map[string]string{"r1.conf": cleanConf, "r2.conf": cleanConf})
	out := t.TempDir()
	reportPath := filepath.Join(t.TempDir(), "report.json")
	code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out, "-metrics-out", reportPath)
	if code != exitClean {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitClean, stderr)
	}
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep confanon.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != confanon.RunReportSchema {
		t.Errorf("schema %q, want %q", rep.Schema, confanon.RunReportSchema)
	}
	if rep.FilesOK != 2 || rep.FilesFailed != 0 || rep.FilesQuarantined != 0 {
		t.Errorf("outcome counts: %+v", rep)
	}
	if rep.Files != 2 || rep.Lines == 0 {
		t.Errorf("headline counters: files=%d lines=%d", rep.Files, rep.Lines)
	}
	if got := rep.Counters["confanon_files_processed_total"]; got != 2 {
		t.Errorf("counter snapshot files_processed = %v, want 2", got)
	}
	if got := rep.Counters[`confanon_batch_files_total{status="ok"}`]; got != 2 {
		t.Errorf("counter snapshot batch ok = %v, want 2", got)
	}
}

// streamReport runs stream mode over in with -metrics-out and returns
// the exit code and the report written.
func streamReport(t *testing.T, in string, args ...string) (int, confanon.RunReport) {
	t.Helper()
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run(context.Background(),
		append(append([]string{"-salt", "s", "-metrics-out", reportPath}, args...), "-"),
		strings.NewReader(in), &out, &errb)
	var rep confanon.RunReport
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("exit %d, no report: %v; stderr:\n%s", code, err, errb.String())
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return code, rep
}

// TestRunMetricsOutStreamMode: the stream path writes a report too, and
// its per-status counts agree with the batch outcome counter.
func TestRunMetricsOutStreamMode(t *testing.T) {
	code, rep := streamReport(t, cleanConf, "-stateless")
	if code != exitClean {
		t.Fatalf("exit %d", code)
	}
	if rep.Files != 1 || rep.Counters["confanon_files_processed_total"] != 1 {
		t.Errorf("stream report: files=%d counters=%v", rep.Files, rep.Counters["confanon_files_processed_total"])
	}
	if rep.Counters["confanon_stream_bytes_in_total"] == 0 {
		t.Error("stream bytes-in counter is zero")
	}
	if rep.FilesOK != 1 || rep.FilesFailed != 0 || rep.FilesQuarantined != 0 ||
		rep.Counters[`confanon_batch_files_total{status="ok"}`] != 1 {
		t.Errorf("stream report: files_ok=%d failed=%d quarantined=%d, batch ok counter %v; want 1, 0, 0, 1",
			rep.FilesOK, rep.FilesFailed, rep.FilesQuarantined, rep.Counters[`confanon_batch_files_total{status="ok"}`])
	}
}

// TestRunStreamStrictReportAndMapping: a quarantined stream is counted
// as quarantined in the report, and its -mapping snapshot is saved as a
// batch run saves it: the withheld file's values are in the Session.
func TestRunStreamStrictReportAndMapping(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "m.bin")
	code, rep := streamReport(t, leakyConf, "-strict", "-mapping", mapPath)
	if code != exitWithheld {
		t.Fatalf("exit %d, want %d", code, exitWithheld)
	}
	if rep.FilesOK != 0 || rep.FilesQuarantined != 1 ||
		rep.Counters[`confanon_batch_files_total{status="quarantined"}`] != 1 {
		t.Errorf("stream report: files_ok=%d quarantined=%d, batch quarantined counter %v; want 0, 1, 1",
			rep.FilesOK, rep.FilesQuarantined, rep.Counters[`confanon_batch_files_total{status="quarantined"}`])
	}
	if b, err := os.ReadFile(mapPath); err != nil || len(b) == 0 {
		t.Errorf("-mapping snapshot not saved after a withheld stream: %d bytes, %v", len(b), err)
	}
}

// TestRunTraceOut: -trace-out writes a parseable confanon.trace/v1
// JSONL file whose span tree and ledger cover the run.
func TestRunTraceOut(t *testing.T) {
	in := writeInput(t, map[string]string{"r1.conf": cleanConf, "r2.conf": cleanConf})
	out := t.TempDir()
	tracePath := filepath.Join(t.TempDir(), "run.trace.jsonl")
	code, _, stderr := runCLI(t,
		"-salt", "s", "-in", in, "-out", out, "-rename=false", "-trace-out", tracePath)
	if code != exitClean {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitClean, stderr)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf, err := confanon.ReadTrace(f)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if tf.Schema != confanon.TraceSchema {
		t.Errorf("schema %q, want %q", tf.Schema, confanon.TraceSchema)
	}
	fileSpans := map[string]bool{}
	for _, s := range tf.Spans {
		if s.Kind == "file" {
			fileSpans[s.Name] = true
		}
	}
	if !fileSpans["r1.conf"] || !fileSpans["r2.conf"] {
		t.Errorf("trace lacks file spans: %v", fileSpans)
	}
	if len(tf.Ledger) == 0 {
		t.Error("trace carries no ledger entries")
	}
	// The ledger must not leak cleartext: the one sensitive address in
	// the input never appears in an Out field.
	for _, d := range tf.Ledger {
		if strings.Contains(d.Out, "12.1.2.3") {
			t.Errorf("cleartext address in ledger entry: %+v", d)
		}
	}
}

// TestRunExplain: the -explain query mode finds the decision chain for
// a traced line, reports misses distinctly, and validates its spec.
func TestRunExplain(t *testing.T) {
	in := writeInput(t, map[string]string{"r1.conf": cleanConf})
	tracePath := filepath.Join(t.TempDir(), "run.trace.jsonl")
	if code, _, stderr := runCLI(t,
		"-salt", "s", "-in", in, "-out", t.TempDir(), "-rename=false",
		"-trace-out", tracePath); code != exitClean {
		t.Fatalf("trace run failed: %s", stderr)
	}

	// Line 3 holds the ip address statement: at least one ip decision.
	code, stdout, stderr := runCLI(t, "-explain", "r1.conf:3", tracePath)
	if code != exitClean {
		t.Fatalf("explain exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "class=ip") || !strings.Contains(stdout, "rule=") {
		t.Errorf("explain output lacks decisions:\n%s", stdout)
	}
	if strings.Contains(stdout, "12.1.2.3") {
		t.Errorf("explain output leaks cleartext:\n%s", stdout)
	}

	if code, _, _ = runCLI(t, "-explain", "r1.conf:999", tracePath); code != exitWithheld {
		t.Errorf("miss: exit %d, want %d", code, exitWithheld)
	}
	if code, _, _ = runCLI(t, "-explain", "no-colon", tracePath); code != exitUsage {
		t.Errorf("bad spec: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ = runCLI(t, "-explain", "r1.conf:zero", tracePath); code != exitUsage {
		t.Errorf("bad line: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ = runCLI(t, "-explain", "r1.conf:3", filepath.Join(t.TempDir(), "absent")); code != exitFatal {
		t.Errorf("missing trace file: exit %d, want %d", code, exitFatal)
	}
}

// TestRunTraceOutStreamMode: the stream path traces too, under the
// synthetic "stdin" file name.
func TestRunTraceOutStreamMode(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.trace.jsonl")
	var out, errb bytes.Buffer
	code := run(context.Background(),
		[]string{"-salt", "s", "-stateless", "-trace-out", tracePath, "-"},
		strings.NewReader(cleanConf), &out, &errb)
	if code != exitClean {
		t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf, err := confanon.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.FileDecisions("stdin")) == 0 {
		t.Error("stream trace has no decisions for stdin")
	}
}

// readOutputs loads every file in an output directory.
func readOutputs(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestRunStateDirKeepsRunsConsistent(t *testing.T) {
	// Two runs over the same corpus through a shared -state-dir must be
	// byte-identical: the second run replays the first run's ledger.
	files := map[string]string{"r1.conf": cleanConf, "r2.conf": "hostname r2\n ip address 12.1.2.99 255.255.255.0\n"}
	state := t.TempDir()
	in := writeInput(t, files)
	out1, out2 := t.TempDir(), t.TempDir()
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out1, "-rename=false", "-state-dir", state); code != exitClean {
		t.Fatalf("run 1: exit %d; stderr:\n%s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out2, "-rename=false", "-state-dir", state); code != exitClean {
		t.Fatalf("run 2: exit %d; stderr:\n%s", code, stderr)
	}
	a, b := readOutputs(t, out1), readOutputs(t, out2)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("state-dir run diverged on %s", name)
		}
	}
	// A different salt must be refused outright.
	if code, _, stderr := runCLI(t, "-salt", "other", "-in", in, "-out", t.TempDir(), "-state-dir", state); code != exitFatal {
		t.Errorf("wrong salt against state dir: exit %d, want %d; stderr:\n%s", code, exitFatal, stderr)
	}
}

func TestRunIncremental(t *testing.T) {
	// -incremental without -state-dir is a usage error.
	if code, _, _ := runCLI(t, "-salt", "s", "-in", t.TempDir(), "-out", t.TempDir(), "-incremental"); code != exitUsage {
		t.Errorf("-incremental without -state-dir: exit %d, want %d", code, exitUsage)
	}

	files := map[string]string{
		"r1.conf": cleanConf,
		"r2.conf": "hostname r2\ninterface Serial0\n ip address 12.9.2.1 255.255.255.252\n",
	}
	state := t.TempDir()
	in := writeInput(t, files)
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", t.TempDir(), "-rename=false",
		"-state-dir", state, "-incremental"); code != exitClean {
		t.Fatalf("recording run: exit %d; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(state, cacheFileName)); err != nil {
		t.Fatalf("recording run wrote no cache: %v", err)
	}

	// Mutate one file; the other must be served from the cache and the
	// output must equal a full re-run from the same state.
	files2 := map[string]string{
		"r1.conf": files["r1.conf"],
		"r2.conf": files["r2.conf"] + "interface Serial1\n ip address 12.9.3.1 255.255.255.252\n",
	}
	in2 := writeInput(t, files2)
	incOut := t.TempDir()
	code, stdout, stderr := runCLI(t, "-salt", "s", "-in", in2, "-out", incOut, "-rename=false",
		"-state-dir", state, "-incremental")
	if code != exitClean {
		t.Fatalf("incremental run: exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "incremental: 1 files reused, 1 rewritten in full") {
		t.Errorf("incremental summary missing or wrong:\n%s", stdout)
	}

	// Full re-run against a copy of the same ledger (every mapping the
	// incremental run committed replays identically; no -incremental, so
	// every line is reprocessed from scratch).
	state2 := t.TempDir()
	entries, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(state, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state2, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	fullOut := t.TempDir()
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in2, "-out", fullOut, "-rename=false",
		"-state-dir", state2, "-workers", "4"); code != exitClean {
		t.Fatalf("full re-run: exit %d; stderr:\n%s", code, stderr)
	}
	inc, full := readOutputs(t, incOut), readOutputs(t, fullOut)
	if len(inc) != len(full) {
		t.Fatalf("output counts differ: incremental %d, full %d", len(inc), len(full))
	}
	for name := range full {
		if inc[name] != full[name] {
			t.Errorf("incremental output differs from full re-run on %s:\n inc: %q\nfull: %q", name, inc[name], full[name])
		}
	}
}

// TestRunIncrementalIgnoresV1Cache: a cache of an older schema left in
// the state dir — the confanon.filecache/v1 JSON, a v2 blob with its
// line records or a v3 blob without a gate record (testdata/filecache-v2
// and testdata/filecache-v3, each written by the last build that wrote
// its schema, over this test's corpus and salt) — is logged and
// ignored, the run is a full recording run with the output of a run
// without -incremental, the cache it leaves behind decodes, and the
// next run reuses every file.
func TestRunIncrementalIgnoresV1Cache(t *testing.T) {
	in := writeInput(t, map[string]string{
		"r1.conf": cleanConf,
		"r2.conf": "hostname r2\ninterface Serial0\n ip address 12.9.2.1 255.255.255.252\n",
	})
	v2, err := os.ReadFile("../../testdata/filecache-v2")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("../../testdata/filecache-v3")
	if err != nil {
		t.Fatal(err)
	}
	fullOut := t.TempDir()
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", fullOut, "-rename=false", "-state-dir", t.TempDir()); code != exitClean {
		t.Fatalf("full run: exit %d; stderr:\n%s", code, stderr)
	}
	full := readOutputs(t, fullOut)
	for name, old := range map[string][]byte{
		"v1": []byte(`{"schema":"confanon.filecache/v1","salt_fp":"x","opts_fp":"y","files":{"r1.conf":{"sum":"z","lines":[{"h":"1","o":"hostname x","s":{}}]}}}`),
		"v2": v2,
		"v3": v3,
	} {
		state := t.TempDir()
		if err := os.WriteFile(filepath.Join(state, cacheFileName), old, 0o600); err != nil {
			t.Fatal(err)
		}
		incOut := t.TempDir()
		code, stdout, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", incOut, "-rename=false", "-state-dir", state, "-incremental")
		if code != exitClean {
			t.Fatalf("%s: incremental run: exit %d; stderr:\n%s", name, code, stderr)
		}
		if !strings.Contains(stderr, "ignoring corpus cache") || !strings.Contains(stderr, "unsupported schema") {
			t.Errorf("%s cache not reported as ignored; stderr:\n%s", name, stderr)
		}
		if !strings.Contains(stdout, "incremental: 0 files reused, 2 rewritten in full") {
			t.Errorf("%s cache: not one full recording run:\n%s", name, stdout)
		}
		inc := readOutputs(t, incOut)
		if len(inc) != len(full) {
			t.Fatalf("%s: output counts differ: incremental %d, full %d", name, len(inc), len(full))
		}
		for f := range full {
			if inc[f] != full[f] {
				t.Errorf("%s: output differs on %s:\n inc: %q\nfull: %q", name, f, inc[f], full[f])
			}
		}
		blob, err := os.ReadFile(filepath.Join(state, cacheFileName))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := confanon.DecodeCorpusCache(blob); err != nil {
			t.Errorf("%s: recorded cache does not decode: %v", name, err)
		}
		// The recording was not strict, so a strict run reuses both files
		// and gates both in full.
		code, stdout, stderr = runCLI(t, "-salt", "s", "-in", in, "-out", t.TempDir(), "-rename=false", "-state-dir", state, "-incremental", "-strict")
		if code != exitClean || !strings.Contains(stdout, "incremental: 2 files reused, 0 rewritten in full (6 lines reused, 0 rewritten); 2 reused files gated") {
			t.Errorf("%s: run after the recording: exit %d\n%s%s", name, code, stdout, stderr)
		}
	}
}

func TestRunMappingFileWrittenAtomically(t *testing.T) {
	// After a run the -mapping path must hold a complete snapshot and no
	// temp artifacts may linger next to it.
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "map.state")
	in := writeInput(t, map[string]string{"r1.conf": cleanConf})
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", t.TempDir(), "-mapping", mapPath); code != exitClean {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(mapPath); err != nil {
		t.Fatalf("mapping file missing: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp artifact left behind: %s", e.Name())
		}
	}
}

// TestRunRulePackFlag: -rule-pack loads a declarative pack on top of
// the built-in inventory (here: the shipped MAC token class), and a
// pack file that does not parse is a clean fatal, not a panic.
func TestRunRulePackFlag(t *testing.T) {
	packPath := filepath.Join("..", "..", "examples", "rulepacks", "mac-addresses.json")
	in := writeInput(t, map[string]string{
		"r1.conf": cleanConf + "interface Ethernet1\n mac-address 00:1c:73:aa:bb:01\n",
	})
	out := t.TempDir()
	code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out,
		"-rename=false", "-rule-pack", packPath)
	if code != exitClean {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitClean, stderr)
	}
	b, err := os.ReadFile(filepath.Join(out, "r1.conf"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "00:1c:73:aa:bb:01") {
		t.Errorf("original MAC survives with the MAC pack loaded:\n%s", b)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "-salt", "s", "-in", in, "-out", t.TempDir(), "-rule-pack", bad)
	if code != exitFatal || !strings.Contains(stderr, "rule-pack") {
		t.Errorf("bad pack: exit %d, stderr %q", code, stderr)
	}
}

// TestRunRuleStatsListsPackRules: -rule-stats reports the rules the
// loaded pack defines, from the run's own Program. Two runs in one
// process load packs that define cli-widget differently; each compiles
// and reports its own hits.
func TestRunRuleStatsListsPackRules(t *testing.T) {
	in := writeInput(t, map[string]string{"r1.conf": cleanConf + "widget alpha\nwidget beta\n"})
	for _, class := range []string{"name", "misc"} {
		pack := filepath.Join(t.TempDir(), "widget.json")
		if err := os.WriteFile(pack, []byte(`{"schema": "confanon.rulepack/v1", "name": "widget", "version": "1", "rules": [
			{"id": "cli-widget", "class": "`+class+`", "scope": "line", "keys": ["widget"], "action": "hash", "doc": "widget names"}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", t.TempDir(), "-rule-stats", "-rule-pack", pack)
		if code != exitClean {
			t.Fatalf("class %s: exit %d, want %d; stderr:\n%s", class, code, exitClean, stderr)
		}
		if !regexp.MustCompile(`(?m)^cli-widget +2 `).MatchString(stderr) {
			t.Errorf("class %s: no cli-widget row with 2 hits in the rule table:\n%s", class, stderr)
		}
	}
}

// TestRunMappingWithStateDirIsUsageError: -mapping and -state-dir are two
// sources of one mapping, and the shaped mapping depends on insertion
// order, so they cannot be merged. Giving both used to restore the state
// dir and then replace its tree with the -mapping file's: with a ledger
// holding eleven hosts of 45.2.3.0/24 and a mapping file holding only
// 12.1.1.1, `ip address 45.2.0.1 255.255.0.0` came out as 17.208.0.1,
// and as 17.209.48.1 on the next run from the state dir alone. Now the
// pair is a usage error that touches nothing, and runs from the state
// dir agree with each other.
func TestRunMappingWithStateDirIsUsageError(t *testing.T) {
	var d strings.Builder
	d.WriteString("hostname d1\n")
	for _, h := range []string{"4", "9", "17", "33", "65", "100", "130", "200", "240", "250", "254"} {
		d.WriteString("interface Ethernet0\n ip address 45.2.3." + h + " 255.255.255.0\n")
	}
	state, mapping := t.TempDir(), filepath.Join(t.TempDir(), "m.bin")
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", writeInput(t, map[string]string{"d1.conf": d.String()}),
		"-out", t.TempDir(), "-rename=false", "-state-dir", state); code != exitClean {
		t.Fatalf("recording the state dir: exit %d; stderr:\n%s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-salt", "s", "-in", writeInput(t, map[string]string{"m1.conf": "hostname m1\ninterface Ethernet0\n ip address 12.1.1.1 255.255.255.0\n"}),
		"-out", t.TempDir(), "-rename=false", "-mapping", mapping); code != exitClean {
		t.Fatalf("recording the mapping file: exit %d; stderr:\n%s", code, stderr)
	}
	before := readOutputs(t, state)
	mapBefore, err := os.ReadFile(mapping)
	if err != nil {
		t.Fatal(err)
	}

	in := writeInput(t, map[string]string{"x1.conf": "hostname x1\ninterface Ethernet0\n ip address 45.2.0.1 255.255.0.0\n"})
	out := filepath.Join(t.TempDir(), "out")
	code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", out, "-rename=false", "-state-dir", state, "-mapping", mapping)
	if code != exitUsage {
		t.Fatalf("-state-dir with -mapping: exit %d, want %d; stderr:\n%s", code, exitUsage, stderr)
	}
	if !strings.Contains(stderr, "-mapping and -state-dir") {
		t.Errorf("stderr does not name the conflict:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("usage error wrote output (stat err %v)", err)
	}
	if after := readOutputs(t, state); !reflect.DeepEqual(after, before) {
		t.Errorf("usage error changed the state dir: %d files before, %d after", len(before), len(after))
	}
	if mapAfter, err := os.ReadFile(mapping); err != nil || !bytes.Equal(mapAfter, mapBefore) {
		t.Errorf("usage error changed the mapping file (read err %v)", err)
	}

	var outs []string
	for i := 0; i < 2; i++ {
		o := t.TempDir()
		if code, _, stderr := runCLI(t, "-salt", "s", "-in", in, "-out", o, "-rename=false", "-state-dir", state); code != exitClean {
			t.Fatalf("state-dir run %d: exit %d; stderr:\n%s", i+1, code, stderr)
		}
		outs = append(outs, readOutputs(t, o)["x1.conf"])
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], " ip address 17.209.48.1 255.255.0.0\n") {
		t.Errorf("runs from the state dir disagree:\n%s\n%s", outs[0], outs[1])
	}
}
