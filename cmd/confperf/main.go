// Command confperf is confanon's performance benchmark: four workloads,
// each measured end to end in an untraced window and then layer by layer
// in one traced pass, with every output checked against a reference.
//
// Usage:
//
//	confperf [-seed N] [-workload W] [-seconds S] [-trace 0|1] [-runs N]
//	         [-json FILE] [-trace-out FILE] [-compare OLD.json]
//
// Each workload runs in a child process of its own, so peak memory is
// per workload. The report names every metric with its unit and sample
// count; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1) listed in
// BENCHMARK.json. The exit status is non-zero when any output check
// failed, a -runs spread exceeded its bound, or -compare found a
// regression. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"confanon/internal/trace"
)

// Workload names, in run order.
var workloadNames = []string{"corpus-strict", "stream-stateless", "incremental-1pct", "portal-jobs"}

// Seeds: the default, and the hold-out seed a performance claim must
// also hold on (choosing-metrics §6.3).
const (
	defaultSeed = 1
	holdoutSeed = 7
)

type config struct {
	seed      int64
	workloads []string
	seconds   int
	trace     int
	lines     int
	runs      int
	jsonOut   string
	traceOut  string
	compare   string
	portalBin string
	workDir   string
	corrupt   bool
	child     bool
}

// result is one workload run, as a child reports it.
type result struct {
	Workload  string    `json:"workload"`
	Digest    string    `json:"digest"`
	Lines     int       `json:"lines"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	Warnings  []string  `json:"warnings,omitempty"`
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) warn(msg string) { r.Warnings = append(r.Warnings, msg) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("confperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var workload string
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("input seed (claims must also hold on the hold-out seed %d)", holdoutSeed))
	fs.StringVar(&workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	fs.IntVar(&cfg.seconds, "seconds", 0, "measurement window per run in seconds (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&cfg.trace, "trace", 1, "1: add the traced pass and report per-layer metrics in the final JSON line; 0: end-to-end only")
	fs.IntVar(&cfg.lines, "lines", defaultLines, "batch corpus size in input lines")
	fs.IntVar(&cfg.runs, "runs", 1, "runs per workload; with 2 or more, check each end-to-end metric's spread against its bound")
	fs.StringVar(&cfg.jsonOut, "json", "", "write the full report (run stamp, every run's metrics) to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans as JSONL to this file (one file per workload and run when there are several)")
	fs.StringVar(&cfg.compare, "compare", "", "compare with an earlier -json report")
	fs.StringVar(&cfg.portalBin, "portal-bin", "", "confportal binary (default: build it)")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for state dirs and builds")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "test hook: flip one output byte in every corpus-strict run, which the checks must catch")
	fs.BoolVar(&cfg.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.workloads = workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			fmt.Fprintf(stderr, "confperf: unknown workload %q (want one of %s)\n", workload, strings.Join(workloadNames, ", "))
			return 2
		}
		cfg.workloads = []string{workload}
	}
	if fs.NArg() > 0 || cfg.trace < 0 || cfg.trace > 1 || cfg.runs < 1 || cfg.lines < 1 || cfg.seconds < 0 {
		fs.Usage()
		return 2
	}
	if cfg.child {
		r, err := runWorkload(cfg, cfg.workloads[0], stderr)
		if err != nil {
			fmt.Fprintf(stderr, "confperf: %s: %v\n", cfg.workloads[0], err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			return 1
		}
		return 0
	}
	return runParent(cfg, stdout, stderr)
}

// runWorkload is the child: generate the inputs, measure the untraced
// window, then (with -trace 1) the traced pass.
func runWorkload(cfg config, name string, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &result{Workload: name, Metrics: metricSet{}}
	window := time.Duration(cfg.seconds) * time.Second
	batchShape := fmt.Sprintf("lines=%d networks=%d workers=%d", cfg.lines, batchNetworks, batchWorkers)
	var traced *inputs // what the traced pass drives
	var op func() error
	stateless := false
	recorded := "" // the workload's own recording of its corpus (see record), if it made one
	runOnce := func(o batchOp) func() error {
		return func() error {
			_, a, f, err := o.run()
			r.count(a, f)
			return err
		}
	}
	switch name {
	case "corpus-strict":
		in := batchInputs(cfg.seed, cfg.lines)
		r.Digest, r.Lines = digest(name, batchShape, in), in.lines
		o, err := newStrictOp(in, cfg.corrupt)
		if err != nil {
			return nil, err
		}
		if err := measureBatch(o, in.lines, window, r); err != nil {
			return nil, err
		}
		traced, op = in, runOnce(o)
	case "stream-stateless":
		in := batchInputs(cfg.seed, cfg.lines)
		r.Digest, r.Lines = digest(name, batchShape, in), in.lines
		o := newStreamOp(in)
		if err := measureBatch(o, in.lines, window, r); err != nil {
			return nil, err
		}
		traced, op, stateless = in, runOnce(o), true
	case "incremental-1pct":
		in := batchInputs(cfg.seed, cfg.lines)
		edited := editOnePercent(in)
		r.Digest, r.Lines = digest(name, batchShape, in, edited), edited.lines
		o, err := newIncrementalOp(in, edited, dir)
		if err != nil {
			return nil, err
		}
		if err := measureBatch(o, edited.lines, window, r); err != nil {
			return nil, err
		}
		r.Metrics.set("incremental.lines_reused_ratio", "ratio", o.reused, 1)
		traced, op, recorded = edited, runOnce(o), o.pristine
	case "portal-jobs":
		in := portalInputs(cfg.seed, jobRate*cfg.seconds)
		r.Digest = digest(name, fmt.Sprintf("rate=%d routers=%d router-lines<=%d owners=%d workers=%d", jobRate, jobRouters, jobRouterLines, portalOwners, batchWorkers), in)
		r.Lines = in.lines
		if err := measurePortal(cfg.portalBin, in, dir, r); err != nil {
			return nil, err
		}
		// The portal is another process, so its layers are driven on an
		// in-process replay of the sampled jobs through the facade calls
		// its job runner makes.
		traced = sampled(in)
		op = func() error {
			_, _, err := facadeRun(traced)
			return err
		}
	}
	if cfg.trace == 0 {
		return r, nil
	}
	fmt.Fprintf(stderr, "confperf: %s: traced pass\n", name)
	tr := trace.NewTracer()
	p, err := tracedPass(traced, stateless, recorded, dir, tr, op)
	if err != nil {
		return nil, err
	}
	for k, v := range p.m {
		r.Metrics[k] = v
	}
	r.count(p.attempted, p.failed)
	if ov := p.m["batch.trace_overhead_ratio"].Value; math.Abs(ov) > 0.15 {
		r.warn(fmt.Sprintf("batch phase self-times sum to %.0f%% of the untraced run (want within 15%%)", (1+ov)*100))
	}
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spec is the part of BENCHMARK.json confperf reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or the
// nearest parent holding one.
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or its parents")
		}
		dir = parent
	}
}

// stamp identifies the host and settings a report was measured with.
type stamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	StateFS    string `json:"state_fs"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"window_s"`
	Trace      int    `json:"trace"`
	Lines      int    `json:"lines"`
}

// report is the -json output.
type report struct {
	Schema    string         `json:"schema"`
	Stamp     stamp          `json:"stamp"`
	Workloads []workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Name   string   `json:"name"`
	Digest string   `json:"digest"`
	Runs   []result `json:"runs"`
}

const reportSchema = "confanon.confperf/v1"

// median of one metric across a workload's runs.
func (w *workloadRuns) median(name string) (metric, bool) {
	var vals []float64
	var m metric
	for _, r := range w.Runs {
		v, ok := r.Metrics[name]
		if !ok {
			return metric{}, false
		}
		vals = append(vals, v.Value)
		m.Unit = v.Unit
		m.N += v.N
	}
	m.Value = median(vals)
	return m, true
}

func runParent(cfg config, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "confperf: %v\n", err)
		return 1
	}
	if cfg.seconds == 0 {
		cfg.seconds = sp.RunSeconds
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "confperf: %v\n", err)
		return 1
	}
	if cfg.portalBin == "" && slices.Contains(cfg.workloads, "portal-jobs") {
		cfg.portalBin = filepath.Join(cfg.workDir, "confportal")
		build := exec.Command("go", "build", "-o", cfg.portalBin, "confanon/cmd/confportal")
		build.Stdout, build.Stderr = stderr, stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(stderr, "confperf: building confportal: %v\n", err)
			return 1
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "confperf: %v\n", err)
		return 1
	}
	rep := report{Schema: reportSchema, Stamp: stamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		StateFS:    fsType(cfg.workDir),
		Seed:       cfg.seed,
		WindowS:    cfg.seconds,
		Trace:      cfg.trace,
		Lines:      cfg.lines,
	}}
	for _, w := range cfg.workloads {
		wr := workloadRuns{Name: w}
		for i := 0; i < cfg.runs; i++ {
			r, err := runChild(self, cfg, w, i, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "confperf: %s: %v\n", w, err)
				return 1
			}
			if wr.Digest != "" && r.Digest != wr.Digest {
				fmt.Fprintf(stderr, "confperf: %s: inputs differ between runs of one seed\n", w)
				return 1
			}
			wr.Digest = r.Digest
			wr.Runs = append(wr.Runs, *r)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	code := 0
	printReport(stdout, &rep, sp)
	if cfg.runs > 1 && !printSpreads(stdout, &rep, sp) {
		code = 1
	}
	if cfg.jsonOut != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "confperf: writing %s: %v\n", cfg.jsonOut, err)
			return 1
		}
	}
	if cfg.compare != "" {
		ok, err := compareReports(stdout, cfg.compare, &rep, sp)
		if err != nil {
			fmt.Fprintf(stderr, "confperf: %v\n", err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	names := sp.EndToEnd
	if cfg.trace == 1 {
		names = sp.PerLayer
	}
	summary, err := summarize(&rep, names)
	if err != nil {
		fmt.Fprintf(stderr, "confperf: %v\n", err)
		return 1
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "confperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !summary.Correct {
		code = 1
	}
	return code
}

// runChild runs one workload in a child process and decodes its result.
func runChild(self string, cfg config, w string, run int, stderr io.Writer) (*result, error) {
	args := []string{
		"-child", "-workload", w,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds),
		"-trace", strconv.Itoa(cfg.trace),
		"-lines", strconv.Itoa(cfg.lines),
		"-work-dir", cfg.workDir,
		"-portal-bin", cfg.portalBin,
	}
	if cfg.corrupt {
		args = append(args, "-corrupt")
	}
	if cfg.traceOut != "" && cfg.trace == 1 {
		path := cfg.traceOut
		if len(cfg.workloads) > 1 || cfg.runs > 1 {
			ext := filepath.Ext(path)
			path = fmt.Sprintf("%s.%s.%d%s", strings.TrimSuffix(path, ext), w, run+1, ext)
		}
		args = append(args, "-trace-out", path)
	}
	fmt.Fprintf(stderr, "confperf: %s: run %d of %d\n", w, run+1, cfg.runs)
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("decoding the child's result: %w", err)
	}
	return &r, nil
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the final line from the metrics BENCHMARK.json
// lists; a listed metric the run did not produce, or produced in another
// unit, is an error. With several workloads the keys are name@workload.
func summarize(rep *report, names []specMetric) (*summary, error) {
	s := &summary{Metrics: map[string]summaryMetric{}}
	for i := range rep.Workloads {
		w := &rep.Workloads[i]
		for _, r := range w.Runs {
			s.Attempted += r.Attempted
			s.Failed += r.Failed
		}
		for _, sm := range names {
			m, ok := w.median(sm.Name)
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, sm.Name)
			}
			if m.Unit != sm.Unit {
				return nil, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", w.Name, sm.Name, m.Unit, sm.Unit)
			}
			key := sm.Name
			if len(rep.Workloads) > 1 {
				key += "@" + w.Name
			}
			s.Metrics[key] = summaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s, nil
}

// printReport writes the human-readable report: the run stamp, then per
// workload its input digest and every metric with unit and sample count.
func printReport(w io.Writer, rep *report, sp *spec) {
	st := rep.Stamp
	fmt.Fprintf(w, "confperf seed=%d window=%ds trace=%d lines=%d nproc=%d GOMAXPROCS=%d go=%s state-fs=%s\n",
		st.Seed, st.WindowS, st.Trace, st.Lines, st.Nproc, st.GOMAXPROCS, st.Go, st.StateFS)
	fmt.Fprintf(w, "cpu: %s\n", st.CPU)
	kind := map[string]string{}
	for _, m := range sp.EndToEnd {
		kind[m.Name] = "end-to-end"
	}
	for _, m := range sp.PerLayer {
		kind[m.Name] = "layer"
	}
	rank := map[string]int{"end-to-end": 0, "layer": 1, "": 2}
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		lines, attempted, failed := 0, 0, 0
		for _, r := range wr.Runs {
			lines = r.Lines
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(w, "\n== %s  input sha256:%s  lines=%d  runs=%d\n", wr.Name, wr.Digest, lines, len(wr.Runs))
		var names []string
		for name := range wr.Runs[0].Metrics {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool {
			if ra, rb := rank[kind[names[a]]], rank[kind[names[b]]]; ra != rb {
				return ra < rb
			}
			return names[a] < names[b]
		})
		for _, name := range names {
			m, _ := wr.median(name)
			k := kind[name]
			if k == "" {
				k = "extra"
			}
			fmt.Fprintf(w, "  %-10s %-32s %14.6g %-8s n=%d\n", k, name, m.Value, m.Unit, m.N)
		}
		fmt.Fprintf(w, "  %-10s %-32s %14.6g %-8s n=%d (%d failed)\n", "check", "error_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted, failed)
		for _, r := range wr.Runs {
			for _, msg := range r.Warnings {
				fmt.Fprintf(w, "  warning: %s\n", msg)
			}
		}
	}
}

// printSpreads reports, per workload and end-to-end metric, the spread
// of the runs ((max − min) / median) against the metric's bound. It
// returns false when a spread exceeds its bound.
func printSpreads(w io.Writer, rep *report, sp *spec) bool {
	ok := true
	fmt.Fprintf(w, "\nrepeatability (%d runs per workload)\n", len(rep.Workloads[0].Runs))
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		for _, sm := range sp.EndToEnd {
			var vals []float64
			for _, r := range wr.Runs {
				vals = append(vals, r.Metrics[sm.Name].Value)
			}
			sort.Float64s(vals)
			spread := ratio(vals[len(vals)-1]-vals[0], median(vals))
			verdict := "ok"
			if spread > sm.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-18s %-16s spread %6.2f%%  bound %5.1f%%  %s\n", wr.Name, sm.Name, spread*100, sm.Bound*100, verdict)
		}
	}
	return ok
}

// compareReports compares this report with an earlier one, workload by
// workload. A workload whose input digest changed is reported as
// changed, never as a result. It returns false when an end-to-end metric
// got worse by more than its bound, or, where the earlier report has at
// least four runs, by more than three times their interquartile spread.
func compareReports(w io.Writer, path string, rep *report, sp *spec) (bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var old report
	if err := json.Unmarshal(b, &old); err != nil || old.Schema != reportSchema {
		return false, fmt.Errorf("%s: not a %s report", path, reportSchema)
	}
	fmt.Fprintf(w, "\ncomparison with %s\n", path)
	if o, n := old.Stamp, rep.Stamp; o.Nproc != n.Nproc || o.CPU != n.CPU || o.WindowS != n.WindowS {
		fmt.Fprintf(w, "  note: hosts or windows differ (nproc %d vs %d, window %ds vs %ds)\n", o.Nproc, n.Nproc, o.WindowS, n.WindowS)
	}
	ok := true
	for i := range rep.Workloads {
		nw := &rep.Workloads[i]
		var ow *workloadRuns
		for j := range old.Workloads {
			if old.Workloads[j].Name == nw.Name {
				ow = &old.Workloads[j]
			}
		}
		switch {
		case ow == nil:
			fmt.Fprintf(w, "  %-18s not in %s\n", nw.Name, path)
			continue
		case ow.Digest != nw.Digest:
			fmt.Fprintf(w, "  %-18s workload changed (input digest differs): no result\n", nw.Name)
			continue
		}
		for _, sm := range sp.EndToEnd {
			om, ok1 := ow.median(sm.Name)
			nm, ok2 := nw.median(sm.Name)
			if !ok1 || !ok2 || om.Value == 0 {
				continue
			}
			worse := (nm.Value - om.Value) / om.Value
			if sm.Better == "higher" {
				worse = -worse
			}
			// The bound is shared by every workload, so the noisiest one sets
			// it. Where the old report has enough runs to measure this
			// workload's own spread, a change beyond three times that spread
			// counts too.
			spread := 0.0
			if len(ow.Runs) >= 4 {
				var vals []float64
				for _, r := range ow.Runs {
					vals = append(vals, r.Metrics[sm.Name].Value)
				}
				spread = ratio(quantile(vals, 0.75)-quantile(vals, 0.25), median(vals))
			}
			verdict := "ok"
			switch {
			case worse > sm.Bound:
				verdict = "REGRESSION"
			case spread > 0 && worse > 3*spread:
				verdict = "REGRESSION (beyond 3x the old runs' spread)"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "  %-18s %-16s %12.6g -> %-12.6g worse by %+6.2f%% (bound %.0f%%, old spread %.1f%%) %s\n",
				nw.Name, sm.Name, om.Value, nm.Value, worse*100, sm.Bound*100, spread*100, verdict)
		}
	}
	return ok, nil
}
