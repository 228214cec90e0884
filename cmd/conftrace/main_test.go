package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confanon"
	"confanon/internal/bench"
)

const testConf = "hostname r9\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\nrouter bgp 701\n neighbor 12.1.2.4 remote-as 1239\n"

func runTool(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeRunArtifacts anonymizes a tiny corpus once with both a tracer
// and a registry wired, and writes the two artifact forms of the same
// run: a JSONL trace and a JSON run report.
func writeRunArtifacts(t *testing.T) (tracePath, reportPath string) {
	t.Helper()
	dir := t.TempDir()
	tr := confanon.NewTracer()
	reg := confanon.NewMetricsRegistry()
	a := confanon.New(confanon.Options{Salt: []byte("ct"), Tracer: tr, Metrics: reg})
	res, err := a.CorpusContext(context.Background(),
		map[string]string{"r1": testConf, "r2": testConf})
	if err != nil {
		t.Fatal(err)
	}

	tracePath = filepath.Join(dir, "run.trace.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reportPath = filepath.Join(dir, "report.json")
	b, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reportPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return tracePath, reportPath
}

func TestRunUsageAndFatalErrors(t *testing.T) {
	if code, _, _ := runTool(t); code != exitUsage {
		t.Errorf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runTool(t, "one-file-only"); code != exitUsage {
		t.Errorf("one arg: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runTool(t, "-bogus", "a", "b"); code != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, exitUsage)
	}
	absent := filepath.Join(t.TempDir(), "absent")
	if code, _, _ := runTool(t, absent, absent); code != exitFatal {
		t.Errorf("missing file: exit %d, want %d", code, exitFatal)
	}
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(garbage, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runTool(t, garbage, garbage); code != exitFatal ||
		!strings.Contains(stderr, "neither a") {
		t.Errorf("garbage file: exit %d, stderr %q", code, stderr)
	}
	foreign := filepath.Join(t.TempDir(), "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runTool(t, foreign, foreign); code != exitFatal ||
		!strings.Contains(stderr, "unrecognized schema") {
		t.Errorf("foreign schema: exit %d, stderr %q", code, stderr)
	}
}

// TestIdenticalRunsShowNoDrift: a run compared against itself is clean,
// in every format pairing — and the trace-derived rule hits must agree
// with the report-derived ones, or the mixed pairing would drift.
func TestIdenticalRunsShowNoDrift(t *testing.T) {
	tracePath, reportPath := writeRunArtifacts(t)
	for _, pair := range [][2]string{
		{reportPath, reportPath},
		{tracePath, tracePath},
		{tracePath, reportPath},
		{reportPath, tracePath},
	} {
		code, stdout, stderr := runTool(t, pair[0], pair[1])
		if code != exitOK {
			t.Fatalf("%v: exit %d; stderr:\n%s", pair, code, stderr)
		}
		if strings.Contains(stderr, "DRIFT") && strings.Contains(stderr, "rule") {
			t.Errorf("%v: rule drift between two views of one run:\n%s", pair, stderr)
		}
		if !strings.Contains(stdout, "rule hits:") {
			t.Errorf("%v: no rule-hits section:\n%s", pair, stdout)
		}
	}
}

// TestDriftWarnsButExitsZero: rule-hit drift beyond -warn-pct is
// reported on stderr yet the exit stays 0 unless -fail-on-drift.
func TestDriftWarnsButExitsZero(t *testing.T) {
	_, reportPath := writeRunArtifacts(t)
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep confanon.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	// Double one rule's hits and add a confirmed leak: both must warn.
	for id := range rep.Counters {
		if strings.HasPrefix(id, "confanon_rule_hits_total") {
			rep.Counters[id] *= 2
		}
	}
	rep.Counters[`confanon_leaks_total{kind="asn",severity="confirmed"}`] = 1
	drifted := filepath.Join(t.TempDir(), "drifted.json")
	b, _ = json.Marshal(&rep)
	if err := os.WriteFile(drifted, b, 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, stderr := runTool(t, reportPath, drifted)
	if code != exitOK {
		t.Fatalf("warn-only run exited %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "DRIFT: rule") {
		t.Errorf("no rule drift warning:\n%s", stderr)
	}
	if !strings.Contains(stderr, "confirmed leaks") {
		t.Errorf("no confirmed-leak warning:\n%s", stderr)
	}

	if code, _, _ = runTool(t, "-fail-on-drift", reportPath, drifted); code != exitDrift {
		t.Errorf("-fail-on-drift exit %d, want %d", code, exitDrift)
	}
	// Widening the tolerance past the change silences the rule warning
	// but not the leak rise, which always warns.
	code, _, stderr = runTool(t, "-warn-pct", "150", reportPath, drifted)
	if code != exitOK || strings.Contains(stderr, "DRIFT: rule") {
		t.Errorf("warn-pct=150 still warned on rules (exit %d):\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "confirmed leaks") {
		t.Errorf("leak rise suppressed by warn-pct:\n%s", stderr)
	}
}

// TestFailedFilesWarn: a failed-file count rising above the baseline is
// drift regardless of percentages.
func TestFailedFilesWarn(t *testing.T) {
	_, reportPath := writeRunArtifacts(t)
	var rep confanon.RunReport
	b, _ := os.ReadFile(reportPath)
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	rep.FilesFailed = 1
	failed := filepath.Join(t.TempDir(), "failed.json")
	b, _ = json.Marshal(&rep)
	if err := os.WriteFile(failed, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, stderr := runTool(t, reportPath, failed); !strings.Contains(stderr, "failed files rose") {
		t.Errorf("no failed-files warning:\n%s", stderr)
	}
}

// writeBench runs the benchmark harness over a small corpus with the
// given policies and writes the report; mutate edits it first.
func writeBench(t *testing.T, name string, policies []bench.Policy, mutate func(*bench.Report)) string {
	t.Helper()
	rep, err := bench.Run(context.Background(), bench.Options{
		Seed: 1, Routers: 40, Networks: 3, Policies: policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(rep)
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

var shapedOnly = []bench.Policy{{Name: "shaped", Workers: 1}}

// TestBenchSelfDiffClean: a bench report against itself is no drift —
// including throughput, which differs between runs of the same seed but
// must never gate.
func TestBenchSelfDiffClean(t *testing.T) {
	base := writeBench(t, "base.json", shapedOnly, nil)
	cur := writeBench(t, "cur.json", shapedOnly, nil)
	code, stdout, stderr := runTool(t, "-fail-on-drift", base, cur)
	if code != exitOK {
		t.Fatalf("self diff exited %d; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "DRIFT") {
		t.Errorf("self diff drifted:\n%s", stderr)
	}
	for _, want := range []string{"bench baseline", "policy shaped", "privacy", "utility", "no bench drift"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff output missing %q:\n%s", want, stdout)
		}
	}
}

// TestBenchGateCatchesWeakenedRule is the acceptance demonstration: a
// deliberately weakened anonymizer — shaped-tree IP mapping disabled
// under the same policy name — must fail the CI drift gate against the
// committed baseline, on both the fingerprint and the utility axes.
func TestBenchGateCatchesWeakenedRule(t *testing.T) {
	base := writeBench(t, "base.json", shapedOnly, nil)
	weakened := writeBench(t, "weak.json",
		[]bench.Policy{{Name: "shaped", StatelessIP: true, Workers: 1}}, nil)
	code, _, stderr := runTool(t, "-fail-on-drift", base, weakened)
	if code != exitDrift {
		t.Fatalf("weakened rule passed the gate (exit %d); stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "fingerprint changed") {
		t.Errorf("no fingerprint-change warning:\n%s", stderr)
	}
	if !strings.Contains(stderr, "utility design_equiv_pct dropped") {
		t.Errorf("no design-equivalence drop warning:\n%s", stderr)
	}
	// Without -fail-on-drift the gate stays warn-only (exit 0).
	if code, _, _ := runTool(t, base, weakened); code != exitOK {
		t.Errorf("warn-only bench diff exited %d", code)
	}
}

// TestBenchThresholds: the privacy gate fires only beyond
// -bench-privacy-drift, and missing policies or changed parameters are
// always drift.
func TestBenchThresholds(t *testing.T) {
	base := writeBench(t, "base.json", shapedOnly, nil)

	leaky := writeBench(t, "leaky.json", shapedOnly, func(r *bench.Report) {
		r.Policies[0].Privacy.IdentityLeakPct = 25
	})
	code, _, stderr := runTool(t, "-fail-on-drift", base, leaky)
	if code != exitDrift || !strings.Contains(stderr, "privacy identity_leak_pct worsened") {
		t.Errorf("leak rise not gated (exit %d):\n%s", code, stderr)
	}
	// Widening the privacy tolerance past the rise silences it.
	if code, _, _ := runTool(t, "-fail-on-drift", "-bench-privacy-drift", "30", base, leaky); code != exitOK {
		t.Errorf("widened privacy threshold still gated (exit %d)", code)
	}
	// A utility drop within -bench-utility-drop is tolerated, beyond it gated.
	dipped := writeBench(t, "dipped.json", shapedOnly, func(r *bench.Report) {
		r.Policies[0].Utility.DesignEquivPct -= 0.5
	})
	if code, _, _ := runTool(t, "-fail-on-drift", base, dipped); code != exitOK {
		t.Errorf("0.5pp utility dip gated at default 1.0pp threshold (exit %d)", code)
	}
	if code, _, _ := runTool(t, "-fail-on-drift", "-bench-utility-drop", "0.1", base, dipped); code != exitDrift {
		t.Errorf("0.5pp utility dip passed a 0.1pp threshold (exit %d)", code)
	}

	missing := writeBench(t, "missing.json", shapedOnly, func(r *bench.Report) {
		r.Policies = nil
	})
	if code, _, stderr := runTool(t, "-fail-on-drift", base, missing); code != exitDrift ||
		!strings.Contains(stderr, "missing from current") {
		t.Errorf("missing policy not gated (exit %d):\n%s", code, stderr)
	}

	reseeded := writeBench(t, "reseeded.json", shapedOnly, func(r *bench.Report) {
		r.Seed = 99
	})
	if code, _, stderr := runTool(t, "-fail-on-drift", base, reseeded); code != exitDrift ||
		!strings.Contains(stderr, "bench parameters changed") {
		t.Errorf("seed change not gated (exit %d):\n%s", code, stderr)
	}
}

// TestBenchMixedArtifactsFatal: a bench report cannot be diffed against
// a trace or run report.
func TestBenchMixedArtifactsFatal(t *testing.T) {
	benchPath := writeBench(t, "bench.json", shapedOnly, nil)
	tracePath, reportPath := writeRunArtifacts(t)
	for _, pair := range [][2]string{
		{benchPath, reportPath},
		{reportPath, benchPath},
		{benchPath, tracePath},
	} {
		code, _, stderr := runTool(t, pair[0], pair[1])
		if code != exitFatal || !strings.Contains(stderr, "cannot diff") {
			t.Errorf("%v: exit %d, stderr %q", pair, code, stderr)
		}
	}
}

// TestPackSwapAttributesRuleDrift: when the two reports disagree on
// their recorded rule-pack identities, the diff reports the pack delta
// as the single drift line and demotes per-rule hit changes to an
// informational attribution note — every hit delta is downstream of the
// pack swap. With equal packs the same hit deltas warn per rule.
func TestPackSwapAttributesRuleDrift(t *testing.T) {
	_, reportPath := writeRunArtifacts(t)
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep confanon.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Packs) == 0 {
		t.Fatal("run report records no rule packs; pack provenance lost")
	}
	// Double every rule's hits — far beyond the default warn threshold.
	for id := range rep.Counters {
		if strings.HasPrefix(id, "confanon_rule_hits_total") {
			rep.Counters[id] *= 2
		}
	}

	write := func(name string, rep *confanon.RunReport) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), name)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Same packs: the doubled hits warn rule by rule, no pack line.
	samePacks := write("same-packs.json", &rep)
	code, _, stderr := runTool(t, reportPath, samePacks)
	if code != exitOK {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "DRIFT: rule") || strings.Contains(stderr, "rule pack changed") {
		t.Errorf("equal packs: want per-rule drift and no pack line:\n%s", stderr)
	}

	// Swap a pack in: one "rule pack changed" drift line, and the same
	// hit deltas must no longer warn — they print the attribution note.
	rep.Packs = append(rep.Packs, confanon.PackMeta{
		Name: "vendor-extras", Version: "1.2.0",
		Fingerprint: "sha256:deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
	})
	swapped := write("swapped-pack.json", &rep)
	code, stdout, stderr := runTool(t, reportPath, swapped)
	if code != exitOK {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "rule pack changed"); n != 1 {
		t.Errorf("want exactly one pack-drift line, got %d:\n%s", n, stderr)
	}
	if !strings.Contains(stderr, "vendor-extras@1.2.0 added (deadbeefdead)") {
		t.Errorf("pack delta missing name/fingerprint:\n%s", stderr)
	}
	if strings.Contains(stderr, "hits changed") {
		t.Errorf("per-rule drift warned despite pack swap:\n%s", stderr)
	}
	if !strings.Contains(stdout, "attributed to the rule-pack change") {
		t.Errorf("no attribution note on suppressed rule drift:\n%s", stdout)
	}
	// The pack swap alone still counts as drift for the hard gate.
	if code, _, _ := runTool(t, "-fail-on-drift", reportPath, swapped); code != exitDrift {
		t.Errorf("-fail-on-drift exit %d, want %d", code, exitDrift)
	}
}
