// Command conftrace diffs two anonymization runs for regressions.
//
// Usage:
//
//	conftrace [-warn-pct N] [-fail-on-drift] BASELINE CURRENT
//
// BASELINE and CURRENT each name a run artifact in any machine format
// confanon emits: a span + provenance trace (JSONL, schema
// confanon.trace/v1, from -trace-out), a run report (JSON, schema
// confanon.run_report/v1, from -metrics-out), or a benchmark report
// (JSON, schema confanon.bench/v1, from confbench). The format is
// detected from the file's schema header. Traces and run reports may
// mix — a checked-in baseline report can be compared against a fresh
// trace — but a bench report only diffs against another bench report.
//
// For traces and run reports the diff covers per-rule hit counts,
// per-stage latency (event count and mean), per-status file outcomes,
// and — when the artifacts carry metric snapshots — leak findings by
// kind and severity. Any relative change beyond -warn-pct (default 25)
// is flagged as drift on stderr.
//
// For bench reports the diff is the CI gate over the privacy/utility
// suites: per policy, any privacy score worsening (re-identification,
// fingerprint survival, or identity leak rising) beyond
// -bench-privacy-drift percentage points, or any utility score
// (design equivalence, characteristics clean) dropping beyond
// -bench-utility-drop percentage points, is drift. A changed policy
// fingerprint or a policy missing from the current report is also
// drift. Throughput is machine-dependent and reported informationally,
// never as drift.
//
// Exit codes:
//
//	0  diff printed; drift, if any, was warned about (default gate is
//	   warn-only, for CI steps that report but do not block)
//	1  drift found and -fail-on-drift was set
//	2  usage error
//	3  fatal error (unreadable, unrecognized, or mismatched input)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"confanon"
	"confanon/internal/bench"
	"confanon/internal/metrics"
)

const (
	exitOK    = 0
	exitDrift = 1
	exitUsage = 2
	exitFatal = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected (tested directly).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conftrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	warnPct := fs.Float64("warn-pct", 25, "flag relative changes beyond this percentage as drift")
	failOnDrift := fs.Bool("fail-on-drift", false, "exit 1 when drift is found (default: warn only)")
	privacyPP := fs.Float64("bench-privacy-drift", 1.0,
		"bench reports: flag privacy scores worsening beyond this many percentage points as drift")
	utilityPP := fs.Float64("bench-utility-drop", 1.0,
		"bench reports: flag utility scores dropping beyond this many percentage points as drift")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "conftrace: need exactly two run artifacts (baseline, current)")
		fs.Usage()
		return exitUsage
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		return fatal(stderr, err)
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return fatal(stderr, err)
	}
	if (base.bench != nil) != (cur.bench != nil) {
		return fatal(stderr, fmt.Errorf("cannot diff a %s report against a run artifact: %s is %s, %s is %s",
			bench.Schema, base.path, base.source, cur.path, cur.source))
	}
	var drift bool
	if base.bench != nil {
		drift = diffBench(stdout, stderr, base.path, cur.path, base.bench, cur.bench, *privacyPP, *utilityPP)
	} else {
		drift = diff(stdout, stderr, base.sum, cur.sum, *warnPct)
	}
	if drift && *failOnDrift {
		return exitDrift
	}
	return exitOK
}

// artifact is one loaded run artifact: exactly one of sum (trace or
// run report, normalized) and bench is set.
type artifact struct {
	path   string
	source string // "trace", "report", or "bench"
	sum    *summary
	bench  *bench.Report
}

// summary is the normalized view of one run, extractable from either
// artifact format.
type summary struct {
	path   string
	source string // "trace" or "report"

	ruleHits   map[string]float64
	ruleTimeNs map[string]float64
	stageCount map[string]float64
	stageSumS  map[string]float64 // total seconds per stage
	leaks      map[string]float64 // "kind/severity" → findings

	// packs maps "name@version" to the pack's content fingerprint, from
	// the run report's rule_packs field; empty for span traces and for
	// reports written before packs were recorded.
	packs map[string]string

	filesOK, filesFailed, filesQuarantined float64
}

func newSummary(path, source string) *summary {
	return &summary{
		path: path, source: source,
		ruleHits:   map[string]float64{},
		ruleTimeNs: map[string]float64{},
		stageCount: map[string]float64{},
		stageSumS:  map[string]float64{},
		leaks:      map[string]float64{},
		packs:      map[string]string{},
	}
}

// load reads one run artifact, sniffing its schema: traces parse via
// the trace reader, then bench reports, then run reports.
func load(path string) (*artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if tf, err := confanon.ReadTrace(f); err == nil {
		return &artifact{path: path, source: "trace", sum: fromTrace(path, tf)}, nil
	} else if !errors.Is(err, confanon.ErrTraceSchema) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if br, err := bench.Decode(f); err == nil {
		return &artifact{path: path, source: "bench", bench: br}, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var rep confanon.RunReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: neither a %s trace, a %s report, nor a %s report: %w",
			path, confanon.TraceSchema, bench.Schema, confanon.RunReportSchema, err)
	}
	if rep.Schema != confanon.RunReportSchema {
		return nil, fmt.Errorf("%s: unrecognized schema %q", path, rep.Schema)
	}
	return &artifact{path: path, source: "report", sum: fromReport(path, &rep)}, nil
}

// fromTrace summarizes a span trace: rule spans carry per-file hit
// counts and attributed wall time, stage spans their per-file latency,
// file spans the run's outcome counts (quarantine is a batch-layer
// verdict the engine's spans do not see; those files count as ok here).
func fromTrace(path string, tf *confanon.TraceFile) *summary {
	s := newSummary(path, "trace")
	for _, sp := range tf.Spans {
		switch sp.Kind {
		case "rule":
			hits, _ := strconv.ParseFloat(sp.Attr("hits"), 64)
			s.ruleHits[sp.Name] += hits
			s.ruleTimeNs[sp.Name] += float64(sp.DurNs)
		case "stage":
			s.stageCount[sp.Name]++
			s.stageSumS[sp.Name] += float64(sp.DurNs) / 1e9
		case "file":
			if sp.Status == "failed" {
				s.filesFailed++
			} else {
				s.filesOK++
			}
		}
	}
	return s
}

// fromReport summarizes a run report from its flattened metric
// snapshot (series identities documented on RunReport.Counters).
func fromReport(path string, rep *confanon.RunReport) *summary {
	s := newSummary(path, "report")
	s.filesOK = float64(rep.FilesOK)
	s.filesFailed = float64(rep.FilesFailed)
	s.filesQuarantined = float64(rep.FilesQuarantined)
	for _, pm := range rep.Packs {
		s.packs[pm.Name+"@"+pm.Version] = pm.Fingerprint
	}
	for id, v := range rep.Counters {
		name, labels := metrics.SplitSeries(id)
		switch name {
		case "confanon_rule_hits_total":
			s.ruleHits[labels["rule"]] += v
		case "confanon_rule_time_ns_total":
			s.ruleTimeNs[labels["rule"]] += v
		case "confanon_stage_seconds_count":
			s.stageCount[labels["stage"]] += v
		case "confanon_stage_seconds_sum":
			s.stageSumS[labels["stage"]] += v
		case "confanon_leaks_total":
			s.leaks[labels["kind"]+"/"+labels["severity"]] += v
		}
	}
	return s
}

// diff prints the regression comparison and reports whether any series
// drifted beyond warnPct.
func diff(stdout, stderr io.Writer, base, cur *summary, warnPct float64) bool {
	fmt.Fprintf(stdout, "conftrace: baseline %s (%s) vs current %s (%s)\n",
		base.path, base.source, cur.path, cur.source)
	drift := false
	warn := func(format string, args ...interface{}) {
		drift = true
		fmt.Fprintf(stderr, "conftrace: DRIFT: "+format+"\n", args...)
	}

	fmt.Fprintf(stdout, "\nfiles: ok %v -> %v, failed %v -> %v, quarantined %v -> %v\n",
		base.filesOK, cur.filesOK, base.filesFailed, cur.filesFailed,
		base.filesQuarantined, cur.filesQuarantined)
	if cur.filesFailed > base.filesFailed {
		warn("failed files rose %v -> %v", base.filesFailed, cur.filesFailed)
	}
	if cur.filesQuarantined > base.filesQuarantined {
		warn("quarantined files rose %v -> %v", base.filesQuarantined, cur.filesQuarantined)
	}

	// When both artifacts record their rule-pack identities and the set
	// differs, the rule inventory itself changed: report that as one
	// drift line — the pack delta, with fingerprints — and print the
	// per-rule hit changes informationally rather than as drift, since
	// every one of them is downstream of the pack swap.
	packsChanged := packDrift(base.packs, cur.packs)
	if len(packsChanged) > 0 {
		warn("rule pack changed: %s", strings.Join(packsChanged, "; "))
	}

	fmt.Fprintf(stdout, "\nrule hits:\n")
	for _, rule := range unionKeys(base.ruleHits, cur.ruleHits) {
		b, c := base.ruleHits[rule], cur.ruleHits[rule]
		pct := relPct(b, c)
		fmt.Fprintf(stdout, "  %-34s %10.0f -> %-10.0f %s\n", rule, b, c, pctLabel(pct))
		if math.Abs(pct) > warnPct {
			if len(packsChanged) > 0 {
				fmt.Fprintf(stdout, "  ^ hit change attributed to the rule-pack change above, not drift\n")
				continue
			}
			warn("rule %s hits changed %.0f -> %.0f (%+.1f%%)", rule, b, c, pct)
		}
	}

	fmt.Fprintf(stdout, "\nstage latency (count, mean):\n")
	for _, stage := range unionKeys(base.stageCount, cur.stageCount) {
		bMean := mean(base.stageSumS[stage], base.stageCount[stage])
		cMean := mean(cur.stageSumS[stage], cur.stageCount[stage])
		pct := relPct(bMean, cMean)
		fmt.Fprintf(stdout, "  %-12s %6.0fx %10.3gs -> %6.0fx %10.3gs %s\n",
			stage, base.stageCount[stage], bMean, cur.stageCount[stage], cMean, pctLabel(pct))
		if math.Abs(pct) > warnPct {
			warn("stage %s mean latency changed %.3gs -> %.3gs (%+.1f%%)", stage, bMean, cMean, pct)
		}
	}

	if len(base.leaks) > 0 || len(cur.leaks) > 0 {
		fmt.Fprintf(stdout, "\nleak findings (kind/severity):\n")
		for _, k := range unionKeys(base.leaks, cur.leaks) {
			b, c := base.leaks[k], cur.leaks[k]
			fmt.Fprintf(stdout, "  %-34s %10.0f -> %-10.0f\n", k, b, c)
			if c > b && strings.HasSuffix(k, "/confirmed") {
				warn("confirmed leaks %s rose %.0f -> %.0f", k, b, c)
			}
		}
	} else if base.source == "trace" && cur.source == "trace" {
		fmt.Fprintf(stdout, "\nleak findings: not recorded in span traces (compare run reports)\n")
	}

	if !drift {
		fmt.Fprintf(stdout, "\nno drift beyond %.0f%%\n", warnPct)
	}
	return drift
}

// packDrift compares two recorded pack-identity sets and renders the
// delta, one entry per added, removed, or re-fingerprinted pack. Empty
// when either side recorded no packs (old artifact, span trace) or the
// sets agree.
func packDrift(base, cur map[string]string) []string {
	if len(base) == 0 || len(cur) == 0 {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for k := range base {
		seen[k] = true
	}
	for k := range cur {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	short := func(fp string) string {
		fp = strings.TrimPrefix(fp, "sha256:")
		if len(fp) > 12 {
			fp = fp[:12]
		}
		return fp
	}
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inBase:
			out = append(out, fmt.Sprintf("%s added (%s)", k, short(c)))
		case !inCur:
			out = append(out, fmt.Sprintf("%s removed (%s)", k, short(b)))
		case b != c:
			out = append(out, fmt.Sprintf("%s fingerprint %s -> %s", k, short(b), short(c)))
		}
	}
	return out
}

// scoreDelta is one gated score in a bench diff.
type scoreDelta struct {
	name string
	b, c float64
}

// diffBench prints the privacy/utility gate comparison of two bench
// reports and reports whether any score drifted beyond its threshold.
// Privacy scores are "higher is worse" (rises beyond privacyPP drift);
// utility scores are "higher is better" (drops beyond utilityPP
// drift). Throughput never drifts.
func diffBench(stdout, stderr io.Writer, basePath, curPath string, base, cur *bench.Report, privacyPP, utilityPP float64) bool {
	fmt.Fprintf(stdout, "conftrace: bench baseline %s vs current %s\n", basePath, curPath)
	drift := false
	warn := func(format string, args ...interface{}) {
		drift = true
		fmt.Fprintf(stderr, "conftrace: DRIFT: "+format+"\n", args...)
	}

	// Scores are only comparable over the same population.
	if base.Seed != cur.Seed || base.TopK != cur.TopK || base.Corpus != cur.Corpus {
		warn("bench parameters changed: seed %d -> %d, top-k %d -> %d, corpus %+v -> %+v",
			base.Seed, cur.Seed, base.TopK, cur.TopK, base.Corpus, cur.Corpus)
	}
	fmt.Fprintf(stdout, "corpus: %d networks, %d routers, %d lines (seed %d, top-%d)\n",
		cur.Corpus.Networks, cur.Corpus.Routers, cur.Corpus.Lines, cur.Seed, cur.TopK)

	for i := range base.Policies {
		bp := &base.Policies[i]
		cp := cur.Policy(bp.Name)
		fmt.Fprintf(stdout, "\npolicy %s\n", bp.Name)
		if cp == nil {
			warn("policy %s missing from current report", bp.Name)
			continue
		}
		if cp.Fingerprint != bp.Fingerprint {
			warn("policy %s fingerprint changed: %q -> %q", bp.Name, bp.Fingerprint, cp.Fingerprint)
		}

		for _, d := range []scoreDelta{
			{"subnet_match_pct", bp.Privacy.SubnetMatchPct, cp.Privacy.SubnetMatchPct},
			{"peering_match_pct", bp.Privacy.PeeringMatchPct, cp.Privacy.PeeringMatchPct},
			{"subnet_top1_pct", bp.Privacy.SubnetTop1Pct, cp.Privacy.SubnetTop1Pct},
			{"subnet_topk_pct", bp.Privacy.SubnetTopKPct, cp.Privacy.SubnetTopKPct},
			{"peering_top1_pct", bp.Privacy.PeeringTop1Pct, cp.Privacy.PeeringTop1Pct},
			{"peering_topk_pct", bp.Privacy.PeeringTopKPct, cp.Privacy.PeeringTopKPct},
			{"combined_top1_pct", bp.Privacy.CombinedTop1Pct, cp.Privacy.CombinedTop1Pct},
			{"combined_topk_pct", bp.Privacy.CombinedTopKPct, cp.Privacy.CombinedTopKPct},
			{"identity_leak_pct", bp.Privacy.IdentityLeakPct, cp.Privacy.IdentityLeakPct},
		} {
			delta := d.c - d.b
			fmt.Fprintf(stdout, "  privacy %-26s %7.2f -> %-7.2f %s\n", d.name, d.b, d.c, ppLabel(delta))
			if delta > privacyPP {
				warn("policy %s privacy %s worsened %.2f -> %.2f (+%.2fpp)", bp.Name, d.name, d.b, d.c, delta)
			}
		}
		for _, d := range []scoreDelta{
			{"design_equiv_pct", bp.Utility.DesignEquivPct, cp.Utility.DesignEquivPct},
			{"characteristics_clean_pct", bp.Utility.CharacteristicsCleanPct, cp.Utility.CharacteristicsCleanPct},
		} {
			delta := d.c - d.b
			fmt.Fprintf(stdout, "  utility %-26s %7.2f -> %-7.2f %s\n", d.name, d.b, d.c, ppLabel(delta))
			if -delta > utilityPP {
				warn("policy %s utility %s dropped %.2f -> %.2f (%.2fpp)", bp.Name, d.name, d.b, d.c, delta)
			}
		}
		fmt.Fprintf(stdout, "  throughput %.0f -> %.0f lines/s (machine-dependent, never drift)\n",
			bp.Throughput.LinesPerSec, cp.Throughput.LinesPerSec)
	}
	for i := range cur.Policies {
		if base.Policy(cur.Policies[i].Name) == nil {
			fmt.Fprintf(stdout, "\npolicy %s: new in current, not gated\n", cur.Policies[i].Name)
		}
	}
	if !drift {
		fmt.Fprintf(stdout, "\nno bench drift beyond +%.1fpp privacy / -%.1fpp utility\n", privacyPP, utilityPP)
	}
	return drift
}

// ppLabel renders a percentage-point delta, blank when zero.
func ppLabel(delta float64) string {
	if delta == 0 {
		return ""
	}
	return fmt.Sprintf("(%+.2fpp)", delta)
}

func mean(sum, count float64) float64 {
	if count == 0 {
		return 0
	}
	return sum / count
}

// relPct is the relative change from b to c in percent; a series
// appearing or disappearing outright is ±100%.
func relPct(b, c float64) float64 {
	if b == 0 {
		if c == 0 {
			return 0
		}
		return 100
	}
	return (c - b) / b * 100
}

func pctLabel(pct float64) string {
	if pct == 0 {
		return ""
	}
	return fmt.Sprintf("(%+.1f%%)", pct)
}

func unionKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "conftrace:", err)
	return exitFatal
}
