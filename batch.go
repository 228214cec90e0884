package confanon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"confanon/internal/anonymizer"
	"confanon/internal/trace"
)

// This file is the batch layer, and it fails closed: every file is
// processed under per-file panic recovery (one bad file yields one
// FileError, the rest of the corpus completes), cancellation and
// deadlines flow in through context.Context, and under Options.Strict a
// file whose post-anonymization leak report contains confirmed
// (non-false-positive) leaks is quarantined — recorded, withheld from
// the outputs, never silently published. Only the single-file File and
// Stream calls are fail-open.

// FileError identifies the file, line, and cause of one per-file failure.
// It is the internal/anonymizer type re-exported.
type FileError = anonymizer.FileError

// PanicError is the FileError cause recorded when per-file recovery
// caught a panic.
type PanicError = anonymizer.PanicError

// ErrQuarantined is wrapped into errors reported for files withheld by
// strict leak-gating (used by the stream path, where quarantine surfaces
// through the error channel).
var ErrQuarantined = errors.New("quarantined: leak report not clean")

// FileStatus classifies one file's outcome in a CorpusResult.
type FileStatus int

const (
	// FileOK: the file anonymized cleanly; Text holds the output.
	FileOK FileStatus = iota
	// FileFailed: processing failed (panic or I/O); Err holds the cause
	// and no output exists.
	FileFailed
	// FileQuarantined: anonymization completed but strict leak-gating
	// found confirmed leaks in the output; Leaks holds them and the
	// output is withheld.
	FileQuarantined
)

// String names the status for reports.
func (s FileStatus) String() string {
	switch s {
	case FileOK:
		return "ok"
	case FileFailed:
		return "failed"
	case FileQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("FileStatus(%d)", int(s))
}

// FileResult is one file's outcome in a CorpusResult.
type FileResult struct {
	Name   string
	Status FileStatus
	// Text is the anonymized output; set only when Status == FileOK.
	Text string
	// Err is the failure; set only when Status == FileFailed.
	Err *FileError
	// Leaks are the confirmed leaks that triggered quarantine; set only
	// when Status == FileQuarantined.
	Leaks []Leak
}

// Ok reports whether the file anonymized cleanly and may be published.
func (r FileResult) Ok() bool { return r.Status == FileOK }

// CorpusResult is the error-carrying outcome of a batch run: one
// FileResult per input file plus the merged statistics of the files that
// completed (a failed file's counts never reach the totals). Files
// missing from Files were never started (the context was cancelled
// first). Report is the machine-readable run summary: always present on
// a finished result, with the full metric snapshot when Options.Metrics
// wired a registry.
type CorpusResult struct {
	Files  map[string]FileResult
	Stats  Stats
	Report *RunReport
	// Incremental summarizes cache reuse; set only by
	// IncrementalCorpusContext (incremental.go).
	Incremental *IncrementalSummary
}

// Ok reports whether every input file anonymized cleanly.
func (r *CorpusResult) Ok() bool {
	for _, f := range r.Files {
		if !f.Ok() {
			return false
		}
	}
	return true
}

// Outputs returns the publishable files only — exactly the FileOK
// subset. Failed and quarantined files are absent, never half-present.
func (r *CorpusResult) Outputs() map[string]string {
	out := make(map[string]string, len(r.Files))
	for name, f := range r.Files {
		if f.Ok() {
			out[name] = f.Text
		}
	}
	return out
}

// Failed returns the per-file errors, sorted by file name.
func (r *CorpusResult) Failed() []*FileError {
	var errs []*FileError
	for _, f := range r.Files {
		if f.Status == FileFailed {
			errs = append(errs, f.Err)
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Name < errs[j].Name })
	return errs
}

// Quarantined returns the names of leak-gated files, sorted.
func (r *CorpusResult) Quarantined() []string {
	var names []string
	for name, f := range r.Files {
		if f.Status == FileQuarantined {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// confirmedLeaks filters a leak report down to the entries that gate
// emission: everything not classified as a likely false positive.
func confirmedLeaks(report []Leak) []Leak {
	var out []Leak
	for _, l := range report {
		if !l.LikelyFalsePositive {
			out = append(out, l)
		}
	}
	return out
}

// traceCorpus opens the root span of one batch run when a tracer is
// wired (nil otherwise). Every worker the batch Acquires is handed the
// span's ID so its file and stage spans nest under it. nfiles < 0 means
// the file count is unknown up front (stream corpora).
func (a *Anonymizer) traceCorpus(op string, nfiles, workers int) *trace.Span {
	tr := a.prog.opts.Tracer
	if tr == nil {
		return nil
	}
	sp := tr.StartSpan(trace.KindCorpus, op, 0)
	if nfiles >= 0 {
		sp.SetAttr("files", strconv.Itoa(nfiles))
	}
	sp.SetAttr("workers", strconv.Itoa(workers))
	return sp
}

// endCorpus closes a traceCorpus span: failed with the error attached
// when the run ended on a run-fatal error (cancellation, a dead
// iterator), ok otherwise — per-file failures are carried by the file
// spans, not the corpus status.
func (a *Anonymizer) endCorpus(sp *trace.Span, err error) {
	if sp == nil {
		return
	}
	status := trace.StatusOK
	if err != nil {
		status = trace.StatusFailed
		sp.SetAttr("error", err.Error())
	}
	a.prog.opts.Tracer.End(sp, status)
}

// spanID unwraps an optional span's ID (zero for none).
func spanID(sp *trace.Span) trace.SpanID {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// sortedNames returns a corpus's file names in the order every batch
// driver replays, gates and counts them.
func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// corpusRun is one batch run's shared bookkeeping: the result under
// construction and the run's root span.
type corpusRun struct {
	a   *Anonymizer
	res *CorpusResult
	sp  *trace.Span
}

// beginCorpus opens a batch run over nfiles files.
func (a *Anonymizer) beginCorpus(op string, nfiles, workers int) *corpusRun {
	return &corpusRun{
		a:   a,
		res: &CorpusResult{Files: make(map[string]FileResult, nfiles)},
		sp:  a.traceCorpus(op, nfiles, workers),
	}
}

// finish closes the run: a run-fatal err (cancellation) is counted and
// fails the corpus span, and the result gets the Session's merged Stats
// and its RunReport.
func (r *corpusRun) finish(err error) (*CorpusResult, error) {
	a := r.a
	if err != nil {
		a.batch.countCancel()
	}
	a.endCorpus(r.sp, err)
	r.res.Stats = a.Stats()
	r.res.finishReport(a.reg, a.prog.Packs())
	return r.res, err
}

// phase runs one phase of the run and, when the run is traced, records
// it as a stage span under the corpus span, beside the file spans. The
// phases are "census", "replay", "fill" (or "engine" when files run
// through the engine instead of filling a census template) and "gate".
func (r *corpusRun) phase(name string, f func()) {
	if r.sp == nil {
		f()
		return
	}
	tr := r.a.prog.opts.Tracer
	start := tr.Now()
	f()
	tr.RecordSpan(trace.KindStage, name, r.sp.ID, start, tr.Now()-start, trace.StatusOK)
}

// fanOut calls job(w, i) for every i in [0, n) on workers goroutines,
// w being the calling goroutine's index in [0, workers). Indices are
// handed out in ascending order, so a single worker runs them in order;
// once ctx is cancelled no further job starts. It is the batch layer's
// one worker pool: the census, the engine or the fill, and the gate all
// run on it.
func fanOut(ctx context.Context, n, workers int, job func(w, i int)) {
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					return
				}
				job(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// CorpusContext anonymizes a set of files as one network, fail-closed:
// per-file panic recovery, strict leak-gating when Options.Strict is
// set, and cancellation via ctx. It is ParallelCorpusContext at one
// worker.
func (a *Anonymizer) CorpusContext(ctx context.Context, files map[string]string) (*CorpusResult, error) {
	return a.ParallelCorpusContext(ctx, files, 1)
}

// ParallelCorpusContext anonymizes a corpus across several workers,
// fail-closed: one poisoned file yields one FileError instead of killing
// the batch, Options.Strict gates every file's emission on its leak
// report, and ctx cancels the run (workers finish their in-flight file,
// unstarted files stay absent from the result). The convenience form of
// the Anonymizer method: it compiles a fresh Program and runs one
// Session over the corpus.
func ParallelCorpusContext(ctx context.Context, opts Options, files map[string]string, workers int) (*CorpusResult, error) {
	return Compile(opts).NewSession().ParallelCorpusContext(ctx, files, workers)
}

// censusReplay runs the shaped-tree census over the named files on
// workers goroutines — each file's one engine pass, kept as a Template
// (internal/anonymizer/template.go) — and replays the recorded
// mapper-call logs into the shared tree in the deterministic serial
// order: every file's pins (its own prefix calls, shortest first) in
// sorted-name order, then every file's full log. A file whose census
// failed replays what it recorded before it died, as a serial run maps
// it, and fails in its fill. Returns the templates by index, or ctx's
// error if the census was cut short, in which case the replay is
// skipped. Callers pass names already sorted.
func (r *corpusRun) censusReplay(ctx context.Context, names []string, files map[string]string, workers int) ([]*anonymizer.Template, error) {
	a := r.a
	tmpls := make([]*anonymizer.Template, len(names))
	r.phase("census", func() {
		fanOut(ctx, len(names), workers, func(_, i int) {
			tmpls[i] = a.sess.Census(names[i], files[names[i]])
		})
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.phase("replay", func() {
		for _, t := range tmpls {
			a.sess.Replay(t.Pins())
		}
		for _, t := range tmpls {
			a.sess.Replay(t.Calls())
		}
	})
	return tmpls, nil
}

// gateFilter picks the files the strict gate scans. rewriteAndGate
// calls it once, when the recorder is frozen; the predicate it returns
// reports whether a completed file must be scanned, and is called
// concurrently. A nil gateFilter scans every file.
type gateFilter func() func(name, text string) bool

// rewriteAndGate is the phase every corpus run ends with. job(wk, i)
// produces file i's result on one of workers goroutines, each holding
// its own Session worker nested under the run's span; phase names the
// job phase's span. Once every job has published its recorder entries
// the recorder is frozen, and under Options.Strict each started file
// the filter picks is leak-gated on the same pool — every file against
// the values recorded from the whole corpus, so the quarantine set is
// the same at every worker count. The gate ignores ctx: a started file
// is never published ungated. The gated results are then recorded in
// res.Files and counted in index order — callers pass sorted names. The
// jobs' own results, ungated, are returned by index; nil marks a file
// never started (ctx was cancelled first).
func (r *corpusRun) rewriteAndGate(ctx context.Context, n, workers int, phase string, filter gateFilter, job func(wk *anonymizer.Anonymizer, i int) FileResult) []*FileResult {
	a := r.a
	wks := make([]*anonymizer.Anonymizer, workers)
	for w := range wks {
		wks[w] = a.sess.Acquire()
		wks[w].SetCorpusSpan(spanID(r.sp))
	}
	defer func() {
		for _, wk := range wks {
			a.sess.Release(wk)
		}
	}()
	out := make([]*FileResult, n)
	r.phase(phase, func() {
		fanOut(ctx, n, workers, func(w, i int) {
			fr := job(wks[w], i)
			out[i] = &fr
		})
	})

	leaks := make([][]Leak, n)
	if a.strict {
		mustGate := func(string, string) bool { return true }
		if filter != nil {
			mustGate = filter()
		}
		r.phase("gate", func() {
			fanOut(context.WithoutCancel(ctx), n, workers, func(w, i int) {
				if fr := out[i]; fr != nil && fr.Status == FileOK && mustGate(fr.Name, fr.Text) {
					leaks[i] = confirmedLeaks(wks[w].LeakReport(fr.Text))
				}
			})
		})
	}
	for i, fr := range out {
		if fr == nil {
			continue
		}
		gated := *fr
		if len(leaks[i]) > 0 {
			gated = FileResult{Name: fr.Name, Status: FileQuarantined, Leaks: leaks[i]}
		}
		r.res.Files[fr.Name] = gated
		a.batch.countFile(gated.Status)
	}
	return out
}

// ParallelCorpusContext anonymizes a corpus across workers goroutines
// sharing this Session. It is the one corpus driver (CorpusContext is
// its one-worker case, and IncrementalCorpusContext runs it with some
// files served from a cache), and its output is byte-identical at every
// worker count, under both IP schemes.
//
// Under the default shaped-tree scheme the mapping depends on the order
// addresses first reach the tree, so the run is split into three phases:
// a census, spread over the workers, runs each file's one engine pass
// against throwaway state, keeping its output with every address left
// as a hole and its exact mapper-call sequence; the call logs are then
// replayed into the shared tree serially (every file's pins — its own
// prefix calls, shortest first — in sorted-name order, then every
// file's full sequence), each trace keeping the images the tree
// answered; finally each file's holes are filled in parallel from those
// images, without touching the tree.
// The pipeline is the same at every worker count, one included.
// Under Options.StatelessIP mappings are pure functions of the salt and
// neither is needed.
//
// Strict leak-gating runs after the rewrite, against the values recorded
// from the whole corpus, so the quarantine set does not depend on the
// worker count.
func (a *Anonymizer) ParallelCorpusContext(ctx context.Context, files map[string]string, workers int) (*CorpusResult, error) {
	if workers < 1 {
		workers = 1
	}
	run := a.beginCorpus("parallel-corpus", len(files), workers)
	_, err := run.anonymize(ctx, files, nil, nil, workers)
	return run.finish(err)
}

// anonymize is the corpus pipeline both batch drivers run: census,
// replay and fill under the shaped tree, the engine alone under
// Options.StatelessIP, then the gate (see ParallelCorpusContext). served
// holds the outputs of the files a cache serves (nil for none). Those
// files skip every phase but the gate — their jobs return the cached
// text — which is sound only when they add no tree insertions: their
// addresses must already be resolved in the Session's restored state,
// as IncrementalCorpusContext's are. filter picks the files the gate
// scans (nil for all). It returns rewriteAndGate's ungated results, or
// a run-fatal error (cancellation).
func (r *corpusRun) anonymize(ctx context.Context, files, served map[string]string, filter gateFilter, workers int) ([]*FileResult, error) {
	names := sortedNames(files)
	changed := names
	if len(served) > 0 {
		changed = make([]string, 0, len(names)-len(served))
		for _, n := range names {
			if _, ok := served[n]; !ok {
				changed = append(changed, n)
			}
		}
	}
	var tmpls []*anonymizer.Template
	if !r.a.prog.opts.StatelessIP && len(changed) > 0 {
		var err error
		if tmpls, err = r.censusReplay(ctx, changed, files, workers); err != nil {
			return nil, err
		}
	}

	// With templates every mapper call was replayed above and its image
	// kept, so the fill reads images and the output does not depend on
	// scheduling. A changed file's template sits at its index in changed.
	type job struct {
		name string
		tmpl *anonymizer.Template
	}
	jobs := make([]job, 0, len(names))
	c := 0
	for _, n := range names {
		var t *anonymizer.Template
		if _, ok := served[n]; !ok {
			if tmpls != nil {
				t = tmpls[c]
			}
			c++
		}
		jobs = append(jobs, job{n, t})
	}
	phase := "engine"
	if tmpls != nil {
		phase = "fill"
	}
	results := r.rewriteAndGate(ctx, len(jobs), workers, phase, filter, func(wk *anonymizer.Anonymizer, k int) FileResult {
		j := &jobs[k]
		if text, ok := served[j.name]; ok {
			return FileResult{Name: j.name, Status: FileOK, Text: text}
		}
		var out string
		var ferr *FileError
		if j.tmpl != nil {
			out, ferr = wk.SafeFill(j.tmpl)
			j.tmpl = nil // the template is spent; let it go before the run ends
		} else {
			out, ferr = wk.SafeAnonymizeText(j.name, files[j.name])
		}
		if ferr != nil {
			return FileResult{Name: j.name, Status: FileFailed, Err: ferr}
		}
		return FileResult{Name: j.name, Status: FileOK, Text: out}
	})
	return results, ctx.Err()
}

// StreamCorpusContext anonymizes a sequence of files without ever
// holding the corpus in memory. next is called repeatedly and returns
// the name and content reader of each file in turn, or io.EOF when the
// corpus is exhausted; sink maps each file name to its output writer
// (closed after the file is written). Files are processed in arrival
// order with Stream's memory behavior per file.
//
// All files route through the Session, so an address seen in two files
// maps identically, and later calls on the same Session stay consistent
// with the streamed output. Unlike CorpusContext, the subnet-shaping
// pins are taken from each file individually, in arrival order, rather
// than from the whole corpus up front — so which file first pins a
// shared subnet (and therefore the shape chosen for it) depends on the
// order next yields the files. Use CorpusContext when the mapping must
// be immune to file ordering.
//
// Each file is fault-isolated: a panic while rewriting, a failing
// reader, a sink that cannot be opened, and a writer that fails mid-file
// or on close each produce one *FileError for that file, and the run
// moves on to the next file instead of aborting. Under Options.Strict
// each file's output is buffered and leak-gated before a sink is even
// opened; a gated file is reported as a FileError wrapping
// ErrQuarantined and nothing is written for it. The returned slice
// carries the per-file failures (empty = every file clean); the error
// return is reserved for run-fatal conditions — context cancellation or
// a failing next iterator.
func (a *Anonymizer) StreamCorpusContext(
	ctx context.Context,
	next func() (name string, r io.Reader, err error),
	sink func(name string) (io.WriteCloser, error),
) (ferrs []*FileError, rerr error) {
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	sp := a.traceCorpus("stream-corpus", -1, 1)
	defer func() { a.endCorpus(sp, rerr) }()
	wk.SetCorpusSpan(spanID(sp))
	for {
		if err := ctx.Err(); err != nil {
			a.batch.countCancel()
			return ferrs, err
		}
		name, r, err := next()
		if err == io.EOF {
			return ferrs, nil
		}
		if err != nil {
			return ferrs, err
		}
		if ferr := a.streamOne(wk, name, r, sink); ferr != nil {
			if errors.Is(ferr.Cause, ErrQuarantined) {
				a.batch.countFile(FileQuarantined)
			} else {
				a.batch.countFile(FileFailed)
			}
			ferrs = append(ferrs, ferr)
		} else {
			a.batch.countFile(FileOK)
		}
	}
}

// streamOne pushes one file of a stream corpus through the fail-closed
// pipeline as one engine unit: the sink is opened, written and closed
// inside it, so a file whose sink fails never reaches the Session's
// Stats. In strict mode the output is buffered and gated before the sink
// is opened, so a quarantined file never touches the destination;
// otherwise the file streams straight through with Stream's memory
// behavior (see SafeStreamText).
func (a *Anonymizer) streamOne(
	wk *anonymizer.Anonymizer,
	name string, r io.Reader,
	sink func(name string) (io.WriteCloser, error),
) *FileError {
	var gate func([]Leak) error
	if a.strict {
		gate = func(report []Leak) error {
			if leaks := confirmedLeaks(report); len(leaks) > 0 {
				return fmt.Errorf("%w (%d confirmed leaks, first: %s)", ErrQuarantined, len(leaks), leaks[0])
			}
			return nil
		}
	}
	return wk.SafeStreamText(name, r, func() (io.WriteCloser, error) { return sink(name) }, gate)
}
