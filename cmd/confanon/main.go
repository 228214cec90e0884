// Command confanon anonymizes a directory of router configuration files.
//
// Usage:
//
//	confanon -salt SECRET -in DIR -out DIR [-workers N] [-strict] [-quarantine DIR] [-minimal] [-keep-comments] [-leak-report] [-rule-pack FILE]...
//	confanon -salt SECRET -in DIR -out DIR -state-dir DIR [-incremental]
//	cat r1-confg | confanon -salt SECRET - > r1-anon
//
// Every file in the input directory is treated as one router's
// configuration of a single network; every file's pins (the prefixes it
// maps, shortest first) resolve before any file's addresses, so the
// mapping is consistent and subnet-address preservation holds across
// files. With -workers N the corpus is
// anonymized on N parallel workers; the output and, under -strict, the
// quarantine set are identical to a single-worker run under either IP
// scheme. With -leak-report the tool prints the
// §6.1 leak-highlighting report to stderr after anonymizing; dangerous
// tokens can then be added with repeated -sensitive flags and the tool
// rerun, closing leaks iteratively. Repeated -rule-pack flags load
// declarative rule packs (JSON or TOML, schema confanon.rulepack/v1)
// on top of the built-in inventory; packs extend the rule set and can
// never weaken the built-in gating.
//
// The tool fails closed. A file whose processing fails is reported and
// withheld — never half-written — and the rest of the batch completes.
// With -strict a file whose post-anonymization leak report contains
// confirmed (non-false-positive) leaks is quarantined: the anonymized
// output is withheld and, when -quarantine DIR is given, the original is
// copied there (mode 0600 — it is raw, sensitive data) for review.
//
// Exit codes:
//
//	0  every file anonymized cleanly and was published
//	1  one or more files were withheld (quarantined or failed), or the
//	   leak report found confirmed leaks in the published output
//	2  usage error
//	3  fatal error (bad input directory, interrupted, ...)
//
// With "-" as the sole argument the tool streams one configuration from
// stdin to stdout instead; add -stateless for constant-memory streaming
// (the Crypto-PAn IP scheme needs no pins, so nothing is buffered).
// Under -strict the streamed output is buffered and leak-gated before the
// first byte reaches stdout. -rule-stats prints the engine's per-rule hit
// and wall-time table in either mode.
//
// Observability: -metrics-out FILE writes the machine-readable run
// report (JSON, schema confanon.run_report/v1 — per-status file counts,
// headline counters, and the full metric snapshot keyed by Prometheus
// series identity). -pprof ADDR serves /debug/pprof/* and GET /metrics
// on ADDR for the duration of the run, for profiling long batches.
// -trace-out FILE writes the span + provenance trace (JSONL, schema
// confanon.trace/v1): the corpus → file → stage → rule span hierarchy
// and the ledger of every anonymization decision, recording only the
// anonymized replacements — a trace file is as safe to share as the
// output it describes. Tracing does not change the output.
//
// Durable state: -state-dir DIR opens (creating if needed) a crash-safe
// mapping ledger that the run commits at every clean file boundary; a
// later run with the same salt replays it and stays byte-consistent
// with this one, even after a crash mid-run (committed files survive,
// the interrupted file is simply reprocessed). -state-dir and -mapping
// (a one-file snapshot of the same state) exclude each other. Adding
// -incremental serves every unchanged file from the prior run's file
// cache (kept in the state dir) and rewrites only the changed files —
// output identical to a full re-run. The state directory holds
// cleartext-derived values
// (original addresses, recorder tokens): it is as sensitive as the
// salt, created 0700 with 0600 files, and must never be published.
//
// Query mode: -explain FILE:LINE with a trace file as the sole argument
// prints the provenance decisions recorded for that line —
//
//	confanon -explain rtr7.conf:412 run.trace.jsonl
//
// — answering "why does line 412 look like that" from the trace alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"confanon"
	"confanon/internal/retry"
	"confanon/internal/store"
)

// Exit codes (documented above; keep DESIGN.md §"Failure semantics" in
// sync).
const (
	exitClean    = 0
	exitWithheld = 1
	exitUsage    = 2
	exitFatal    = 3
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected (tested directly; main only
// wires the process pieces in).
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("confanon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		salt       = fs.String("salt", "", "owner secret keying every mapping (required)")
		inDir      = fs.String("in", "", "directory of configuration files (required)")
		outDir     = fs.String("out", "", "output directory (required)")
		minimal    = fs.Bool("minimal", false, "emit minimal-DFA regexps instead of alternations")
		keep       = fs.Bool("keep-comments", false, "retain comments (measurement only; unsafe)")
		leaks      = fs.Bool("leak-report", true, "print the leak-highlighting report to stderr")
		statsOut   = fs.Bool("stats", false, "print anonymization statistics to stderr")
		ruleStats  = fs.Bool("rule-stats", false, "print the per-rule hit count and wall-time table to stderr")
		stateless  = fs.Bool("stateless", false, "use the Crypto-PAn IP scheme: no shared mapping state, constant-memory streaming")
		rename     = fs.Bool("rename", true, "hash output file names (they are usually hostname-derived)")
		mapFile    = fs.String("mapping", "", "IP-mapping state file: loaded if present, saved after the run (keeps later runs consistent; not with -state-dir)")
		stateDir   = fs.String("state-dir", "", "durable mapping-ledger directory: opened (or created) before the run, committed at every clean file boundary; later runs replay it (as sensitive as the salt)")
		increment  = fs.Bool("incremental", false, "with -state-dir: serve unchanged files from the prior run's file cache and rewrite only changed files (output identical to a full run)")
		strict     = fs.Bool("strict", false, "fail closed: quarantine any file whose leak report is not clean")
		quarantine = fs.String("quarantine", "", "directory receiving the originals of quarantined files (with -strict)")
		metricsOut = fs.String("metrics-out", "", "write the machine-readable run report (JSON, schema "+confanon.RunReportSchema+") to this file")
		traceOut   = fs.String("trace-out", "", "write the span + provenance trace (JSONL, schema "+confanon.TraceSchema+") to this file")
		explain    = fs.String("explain", "", "query mode: print the trace decisions for FILE:LINE (sole argument is the trace file)")
		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof and /metrics on this address while the run lasts (e.g. localhost:6060)")
		workers    = fs.Int("workers", 1, "anonymize the corpus on this many parallel workers (output and quarantine set are identical at any count)")
	)
	var sensitive multiFlag
	fs.Var(&sensitive, "sensitive", "extra sensitive token to anonymize everywhere (repeatable)")
	var rulePacks multiFlag
	fs.Var(&rulePacks, "rule-pack", "declarative rule-pack file (JSON or TOML, schema "+confanon.RulePackSchema+"; repeatable, merged in order)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *explain != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "confanon: -explain takes exactly one trace file argument")
			fs.Usage()
			return exitUsage
		}
		return runExplain(*explain, fs.Arg(0), stdout, stderr)
	}

	streamMode := fs.NArg() == 1 && fs.Arg(0) == "-"
	if *salt == "" || (!streamMode && (*inDir == "" || *outDir == "")) || (!streamMode && fs.NArg() > 0) {
		fs.Usage()
		return exitUsage
	}
	if *increment && (*stateDir == "" || streamMode) {
		fmt.Fprintln(stderr, "confanon: -incremental requires -state-dir and batch mode (the cache is only sound against the ledger it was recorded with)")
		return exitUsage
	}
	if *mapFile != "" && *stateDir != "" {
		fmt.Fprintln(stderr, "confanon: -mapping and -state-dir are two sources of one mapping; use one (the shaped mapping depends on insertion order, so the two cannot be merged)")
		return exitUsage
	}
	opts := confanon.Options{
		Salt:         []byte(*salt),
		KeepComments: *keep,
		StatelessIP:  *stateless,
		Strict:       *strict,
	}
	if *minimal {
		opts.Style = confanon.Minimal
	}
	for _, path := range rulePacks {
		var b []byte
		if err := retry.Do(func() (err error) { b, err = os.ReadFile(path); return }); err != nil {
			return fatal(stderr, fmt.Errorf("-rule-pack %s: %w", path, err))
		}
		p, err := confanon.LoadRulePack(b)
		if err != nil {
			return fatal(stderr, fmt.Errorf("-rule-pack %s: %w", path, err))
		}
		opts.RulePacks = append(opts.RulePacks, p)
	}
	if *metricsOut != "" || *pprofAddr != "" {
		opts.Metrics = confanon.NewMetricsRegistry()
	}
	var tracer *confanon.Tracer
	if *traceOut != "" {
		tracer = confanon.NewTracer()
		opts.Tracer = tracer
	}
	if *pprofAddr != "" {
		stopProf, err := serveDebug(*pprofAddr, opts.Metrics)
		if err != nil {
			return fatal(stderr, fmt.Errorf("-pprof: %w", err))
		}
		defer stopProf()
	}
	// Compile through the error-returning path: a rule pack that parses
	// but cannot merge (rule-ID collision, builtin-stage reference) is a
	// clean fatal here, not a panic.
	prog, err := confanon.CompileChecked(opts)
	if err != nil {
		return fatal(stderr, fmt.Errorf("compiling rules: %w", err))
	}
	a := prog.NewSession()
	var mstore *confanon.MappingStore
	if *stateDir != "" {
		var err error
		mstore, err = confanon.OpenMappingStore(*stateDir, opts.Salt)
		if err != nil {
			return fatal(stderr, fmt.Errorf("opening state dir %s: %w", *stateDir, err))
		}
		defer mstore.Close()
		if err := a.UseStore(mstore); err != nil {
			return fatal(stderr, fmt.Errorf("restoring state from %s: %w", *stateDir, err))
		}
	}
	if *mapFile != "" {
		var snap []byte
		err := retry.Do(func() (err error) { snap, err = os.ReadFile(*mapFile); return })
		switch {
		case err == nil:
			if err := a.LoadMapping(snap); err != nil {
				return fatal(stderr, fmt.Errorf("loading %s: %w", *mapFile, err))
			}
		case !os.IsNotExist(err):
			return fatal(stderr, err)
		}
	}
	for _, tok := range sensitive {
		a.AddRule(tok)
	}

	// persist makes the run's mapping durable, before a batch publishes
	// anything: outputs without durable mappings cannot be re-anonymized
	// consistently later. It commits the ledger (-state-dir) and saves
	// the -mapping snapshot whatever the run's outcome, since a withheld
	// file's addresses are already in the tree.
	persist := func() error {
		if mstore != nil {
			if err := a.SyncStore(); err != nil {
				return fmt.Errorf("state dir %s: %w", *stateDir, err)
			}
		}
		if *mapFile != "" {
			return store.WriteFileAtomic(*mapFile, a.SaveMapping(), 0o600)
		}
		return nil
	}
	// finish ends every run, stream or batch: -stats and -rule-stats,
	// the -metrics-out report with the run's per-status file counts,
	// and -trace-out. It returns code unless writing fails.
	finish := func(code int, t tally) int {
		printStats(stderr, a.Stats(), prog.Rules(), *statsOut, *ruleStats)
		if *metricsOut != "" {
			// Built at the very end, so the counters include a batch
			// run's leak-report pass.
			rep := a.Report()
			rep.FilesOK, rep.FilesFailed, rep.FilesQuarantined = t.ok, t.failed, t.quarantined
			if err := writeRunReport(*metricsOut, rep); err != nil {
				return fatal(stderr, err)
			}
		}
		if tracer != nil {
			// Written even when files were withheld: a trace of a failed
			// run is exactly the artifact the operator wants to read.
			if err := writeTrace(*traceOut, tracer); err != nil {
				return fatal(stderr, err)
			}
		}
		return code
	}

	if streamMode {
		code, t := runStream(ctx, a, stdin, stdout, stderr)
		if err := persist(); err != nil {
			return fatal(stderr, err)
		}
		return finish(code, t)
	}

	files, err := readDir(*inDir)
	if err != nil {
		return fatal(stderr, err)
	}
	if len(files) == 0 {
		return fatal(stderr, fmt.Errorf("no files in %s", *inDir))
	}
	var res *confanon.CorpusResult
	var nextCache *confanon.CorpusCache
	if *increment {
		var prior *confanon.CorpusCache
		cachePath := filepath.Join(*stateDir, cacheFileName)
		var blob []byte
		rerr := retry.Do(func() (err error) { blob, err = os.ReadFile(cachePath); return })
		switch {
		case rerr == nil:
			if prior, rerr = confanon.DecodeCorpusCache(blob); rerr != nil {
				// A cache that does not parse forces a full (recording)
				// run; the ledger, not the cache, is the source of truth.
				fmt.Fprintf(stderr, "confanon: ignoring corpus cache %s: %v\n", cachePath, rerr)
				prior = nil
			}
		case !os.IsNotExist(rerr):
			return fatal(stderr, rerr)
		}
		res, nextCache, err = a.IncrementalCorpusContext(ctx, files, prior, *workers)
	} else {
		res, err = a.ParallelCorpusContext(ctx, files, *workers)
	}
	if err != nil {
		return fatal(stderr, fmt.Errorf("anonymization aborted: %w", err))
	}
	if err := persist(); err != nil {
		return fatal(stderr, err)
	}
	if nextCache != nil {
		blob, err := nextCache.Encode()
		if err != nil {
			return fatal(stderr, err)
		}
		if err := store.WriteFileAtomic(filepath.Join(*stateDir, cacheFileName), blob, 0o600); err != nil {
			return fatal(stderr, err)
		}
		sum := res.Incremental
		fmt.Fprintf(stdout, "incremental: %d files reused, %d rewritten in full (%d lines reused, %d rewritten); %d reused files gated\n",
			sum.FilesReused, sum.FilesFull, sum.LinesReused, sum.LinesRewritten, sum.FilesGated)
	}

	post := res.Outputs()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fatal(stderr, err)
	}
	for name, text := range post {
		outName := name
		if *rename {
			outName = a.RenameFile(name)
		}
		if err := writeFileRetry(filepath.Join(*outDir, outName), []byte(text), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "anonymized %d of %d files (%d lines) into %s\n",
		len(post), len(files), res.Stats.Lines, *outDir)

	code := exitClean
	for _, ferr := range res.Failed() {
		fmt.Fprintf(stderr, "confanon: withheld (processing failed): %v\n", ferr)
		code = exitWithheld
	}
	if names := res.Quarantined(); len(names) > 0 {
		code = exitWithheld
		for _, name := range names {
			fr := res.Files[name]
			fmt.Fprintf(stderr, "confanon: quarantined %s: %d confirmed leaks\n", name, len(fr.Leaks))
			for _, l := range fr.Leaks {
				fmt.Fprintln(stderr, "  ", l)
			}
			if *quarantine != "" {
				if err := os.MkdirAll(*quarantine, 0o700); err != nil {
					return fatal(stderr, err)
				}
				// The quarantined copy is the ORIGINAL — raw, sensitive —
				// so it keeps its name (the operator must find it) and
				// gets owner-only permissions.
				if err := writeFileRetry(filepath.Join(*quarantine, name), []byte(files[name]), 0o600); err != nil {
					return fatal(stderr, err)
				}
			}
		}
		if *quarantine != "" {
			fmt.Fprintf(stderr, "confanon: originals of %d quarantined files copied to %s\n", len(names), *quarantine)
		}
	}

	if *leaks {
		report := a.Leaks(post)
		real := 0
		for _, l := range report {
			if !l.LikelyFalsePositive {
				real++
			}
		}
		switch {
		case len(report) == 0:
			fmt.Fprintln(stderr, "leak report: clean")
		case real == 0:
			fmt.Fprintf(stderr, "leak report: %d likely false positives, no confirmed leaks\n", len(report))
		default:
			fmt.Fprintf(stderr, "leak report: %d suspicious tokens (add -sensitive rules and rerun)\n", real)
			for _, l := range report {
				fmt.Fprintln(stderr, "  ", l)
			}
			code = exitWithheld
		}
	}
	return finish(code, tally{res.Report.FilesOK, res.Report.FilesFailed, res.Report.FilesQuarantined})
}

// tally is a run's per-status file counts, as its report carries them.
type tally struct{ ok, failed, quarantined int }

// writeTrace serializes the trace as confanon.trace/v1 JSONL.
func writeTrace(path string, tr *confanon.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return err
	}
	return writeFileRetry(path, buf.Bytes(), 0o644)
}

// runExplain handles "-explain FILE:LINE TRACEFILE": it loads the trace
// and prints the provenance decision chain recorded for that line, one
// decision per row. Exit 0 when decisions were found, 1 when the trace
// has none for that line.
func runExplain(spec, tracePath string, stdout, stderr io.Writer) int {
	colon := strings.LastIndexByte(spec, ':')
	if colon <= 0 || colon == len(spec)-1 {
		fmt.Fprintf(stderr, "confanon: -explain wants FILE:LINE, got %q\n", spec)
		return exitUsage
	}
	file := spec[:colon]
	line, err := strconv.Atoi(spec[colon+1:])
	if err != nil || line < 1 {
		fmt.Fprintf(stderr, "confanon: -explain wants FILE:LINE, got %q\n", spec)
		return exitUsage
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return fatal(stderr, err)
	}
	defer f.Close()
	tf, err := confanon.ReadTrace(f)
	if err != nil {
		return fatal(stderr, fmt.Errorf("reading %s: %w", tracePath, err))
	}
	ds := tf.Explain(file, line)
	if len(ds) == 0 {
		fmt.Fprintf(stderr, "confanon: no decisions recorded for %s:%d\n", file, line)
		return exitWithheld
	}
	for _, d := range ds {
		out := d.Out
		if d.Class == "dropped" {
			out = "(line removed)"
		}
		fmt.Fprintf(stdout, "%s:%d\trule=%s\tclass=%s\tout=%s\n", d.File, d.Line, d.Rule, d.Class, out)
	}
	return exitClean
}

// writeRunReport serializes the run report as indented JSON.
func writeRunReport(path string, rep *confanon.RunReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return writeFileRetry(path, append(b, '\n'), 0o644)
}

// serveDebug exposes /debug/pprof/* and GET /metrics on addr for the
// duration of the run. Unlike the portal's gated endpoints this is a
// local debugging aid on an operator-chosen address (typically a
// localhost port), so it carries no token; the returned stop function
// tears the listener down.
func serveDebug(addr string, reg *confanon.MetricsRegistry) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return func() { _ = srv.Close() }, nil
}

// runStream handles "confanon ... -": one configuration, stdin→stdout,
// with the same fail-closed per-file error channel as the batch path.
// It returns the exit code and the file's outcome.
func runStream(ctx context.Context, a *confanon.Anonymizer, stdin io.Reader, stdout io.Writer, stderr io.Writer) (int, tally) {
	done := false
	next := func() (string, io.Reader, error) {
		if done {
			return "", nil, io.EOF
		}
		done = true
		return "stdin", stdin, nil
	}
	sink := func(string) (io.WriteCloser, error) { return nopCloser{stdout}, nil }
	ferrs, err := a.StreamCorpusContext(ctx, next, sink)
	if err != nil {
		return fatal(stderr, err), tally{}
	}
	t := tally{ok: 1 - len(ferrs)} // stdin is the stream's one file
	for _, fe := range ferrs {
		fmt.Fprintln(stderr, "confanon: withheld:", fe)
		if errors.Is(fe.Cause, confanon.ErrQuarantined) {
			t.quarantined++
		} else {
			t.failed++
		}
	}
	if len(ferrs) > 0 {
		return exitWithheld, t
	}
	return exitClean, t
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func writeFileRetry(path string, data []byte, perm os.FileMode) error {
	return retry.Do(func() error { return os.WriteFile(path, data, perm) })
}

// cacheFileName is the incremental file cache inside -state-dir. The
// cache is a binary confanon.filecache/v4 blob; the name predates it.
const cacheFileName = "filecache.json"

func printStats(stderr io.Writer, s confanon.Stats, rules []confanon.RuleInfo, aggregate, perRule bool) {
	if aggregate {
		fmt.Fprintf(stderr,
			"stats: lines=%d words=%d comment-words-removed=%d hashed=%d passed=%d ips=%d asns=%d communities=%d regexps-rewritten=%d\n",
			s.Lines, s.WordsTotal, s.CommentWordsRemoved, s.TokensHashed, s.TokensPassed,
			s.IPsMapped, s.ASNsMapped, s.CommunitiesMapped, s.RegexpsRewritten)
	}
	if perRule {
		fmt.Fprintf(stderr, "%-34s %8s %12s\n", "rule", "hits", "time")
		var hits int64
		var total time.Duration
		for _, info := range rules {
			h, d := s.Hits(info.ID), s.Time(info.ID)
			if h == 0 && d == 0 {
				continue
			}
			fmt.Fprintf(stderr, "%-34s %8d %12s\n", info.ID, h, d.Round(time.Microsecond))
			hits += h
			total += d
		}
		fmt.Fprintf(stderr, "%-34s %8d %12s\n", "total", hits, total.Round(time.Microsecond))
	}
}

func readDir(dir string) (map[string]string, error) {
	var entries []os.DirEntry
	if err := retry.Do(func() (err error) { entries, err = os.ReadDir(dir); return }); err != nil {
		return nil, err
	}
	files := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var b []byte
		if err := retry.Do(func() (err error) { b, err = os.ReadFile(filepath.Join(dir, e.Name())); return }); err != nil {
			return nil, err
		}
		files[e.Name()] = string(b)
	}
	return files, nil
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "confanon:", err)
	return exitFatal
}
