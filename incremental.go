package confanon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"confanon/internal/anonymizer"
	"confanon/internal/rulepack"
	"confanon/internal/store"
)

// Incremental re-anonymization: a recorded run emits, per file and per
// line, the output each input line contributed plus the engine's
// cross-line resume checkpoint. A later run over a mutated corpus diffs
// each file against the cache, reuses the cached outputs for the
// unchanged line prefix, and re-enters the engine only at the first
// divergent line — producing output byte-identical to re-anonymizing
// the whole corpus from the same restored mapping state (a golden test
// pins this at several worker counts).
//
// The identity argument: in a full run from restored state, every
// address an unchanged file references is already resolved in the tree
// (the prior run resolved it and the ledger/state restore replayed it),
// so unchanged files contribute no new tree insertions. The insertion
// sequence of a full run is therefore exactly the pins of the changed
// files in sorted-name order followed by their full sequences — which
// is precisely what the incremental census replays. The cached prefix
// outputs are sound because a prefix's engine state depends only on the
// prefix's own lines (captured per line as a ResumeState checkpoint)
// and on mappings that are, by the same argument, identical.

// CorpusCacheSchema identifies the incremental line cache's binary
// layout; it opens every cache blob.
const CorpusCacheSchema = "confanon.filecache/v2"

// ResumeState is the engine's serializable cross-line checkpoint,
// stored after every cached line (re-exported from the engine).
type ResumeState = anonymizer.ResumeState

// CorpusCache is the persistent artifact of a recorded run: per file,
// the SHA-256 of its cleartext, its output, and per line the line's
// content hash, the output it contributed and the resume checkpoint
// after it. It stores only anonymized output — never a cleartext line,
// which is represented solely by its hash. The salt and options
// fingerprints cover the mapping-relevant configuration; a cache whose
// fingerprints do not match the current session is ignored wholesale
// (every file reprocessed) rather than half-trusted. Like the mapping
// ledger, the cache holds values derived from cleartext — store it with
// the same care as the salt.
//
// A decoded cache reads lazily: DecodeCorpusCache verifies the blob and
// indexes its file sections, a reused file's output is a substring of
// the blob, and a file's line records are decoded only when a run
// resumes that file. Encode copies the sections of reused files
// verbatim. The layout is documented in filecache.go.
type CorpusCache struct {
	saltFP, optsFP string
	files          map[string]*fileCache
	// lineDecodes counts the files whose line records were decoded from
	// this cache, for the lazy-decode test.
	lineDecodes atomic.Int64
}

// fileCache is one file's cache entry. An entry decoded from a blob
// holds its encoded section and line records there (lines stays nil);
// an entry a run built holds its lines (section and recs stay empty).
type fileCache struct {
	sum     [sha256.Size]byte
	text    string // the file's output: JoinOutputs of the kept line outputs
	n       int    // line count
	section string // the entry as encoded in the blob it came from
	recs    string // the encoded line records inside section
	lines   []lineCache
}

// lineCache is one input line's entry: its content hash, the output it
// contributed (a substring of the file's text; empty when dropped) and
// the resume checkpoint after it.
type lineCache struct {
	hash uint64
	out  string
	drop bool
	next ResumeState
}

// newFileCache builds the entry of a file that ran with the given line
// records: its text joins the outputs of the lines not dropped.
func newFileCache(sum [sha256.Size]byte, lines []lineCache) *fileCache {
	outs := make([]string, 0, len(lines))
	for _, lc := range lines {
		if !lc.drop {
			outs = append(outs, lc.out)
		}
	}
	return &fileCache{sum: sum, text: anonymizer.JoinOutputs(outs), n: len(lines), lines: lines}
}

// IncrementalSummary reports how an incremental run dispatched its
// files: reused whole from the cache, resumed mid-file, or reprocessed
// in full. Line counts cover the same split. CacheInvalidated is set
// when a prior cache was supplied but its fingerprints did not match
// the session (wrong salt, changed options, or changed sensitive
// tokens), forcing a full run.
type IncrementalSummary struct {
	FilesReused      int  `json:"files_reused"`
	FilesPartial     int  `json:"files_partial"`
	FilesFull        int  `json:"files_full"`
	LinesReused      int  `json:"lines_reused"`
	LinesRewritten   int  `json:"lines_rewritten"`
	CacheInvalidated bool `json:"cache_invalidated,omitempty"`
}

// cacheSaltFP is the salt fingerprint both the mapping ledger and the
// corpus cache are keyed by.
func (a *Anonymizer) cacheSaltFP() string { return store.SaltFingerprint(a.prog.opts.Salt) }

// cacheOptsFP fingerprints every non-salt input that can change a
// line's output: the regexp style, comment retention, the IP scheme,
// the compiled rule packs (swapping or editing a pack can rewrite any
// line, so it invalidates every cached line), and the session's
// operator-added sensitive tokens (a token added since the cache was
// recorded invalidates every cached line — the token could appear
// anywhere). Strict mode is deliberately absent: it gates emission,
// never alters a line, and gating always re-runs.
func (a *Anonymizer) cacheOptsFP() string {
	h := sha256.New()
	fmt.Fprintf(h, "confanon.optsfp/style=%v/keep=%t/stateless=%t",
		a.prog.opts.Style, a.prog.opts.KeepComments, a.prog.opts.StatelessIP)
	fmt.Fprintf(h, "/packs=%s", rulepack.FingerprintsOf(a.prog.Packs()))
	for _, tok := range a.sess.SensitiveTokens() {
		fmt.Fprintf(h, "/tok=%q", tok)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// toLineCaches returns prefix followed by the cache entries of recs.
func toLineCaches(prefix []lineCache, recs []anonymizer.LineRecord) []lineCache {
	out := make([]lineCache, len(prefix), len(prefix)+len(recs))
	copy(out, prefix)
	for _, r := range recs {
		out = append(out, lineCache{hash: r.Hash, out: r.Out, drop: r.Drop, next: r.Next})
	}
	return out
}

// File dispositions of an incremental run.
const (
	modeReuse   = iota // content hash matched: output straight from cache
	modePartial        // line prefix matched: engine resumed at divergence
	modeFull           // no usable entry: full recorded reprocess
)

func modeName(mode int) string {
	switch mode {
	case modeReuse:
		return "reused"
	case modePartial:
		return "partial"
	}
	return "full"
}

// incrPlan is the per-file work order the classifier produces.
type incrPlan struct {
	name  string
	mode  int
	sum   [sha256.Size]byte
	p     int         // reused prefix length in lines
	lines []string    // split cleartext; nil for modeReuse
	fc    *fileCache  // the cached entry a modeReuse plan serves
	prev  []lineCache // the cached line records a modePartial plan resumes
}

// needsEngine reports whether the plan has lines to run (a modePartial
// plan whose new content is a pure prefix of the cached file has none).
func (pl *incrPlan) needsEngine() bool {
	return pl.mode == modeFull || (pl.mode == modePartial && pl.p < len(pl.lines))
}

// incrOut is one plan's cache outcome: its next-cache entry and the
// line accounting for the summary (unused for failed files — a failed
// file is never half-cached).
type incrOut struct {
	fc                *fileCache
	reused, rewritten int
}

// run executes one plan on wk. Cache-served plans (a content-hash match,
// or a new content that is a pure prefix of the cached file) assemble
// their output from the cache without touching the engine; the rest run
// the engine in full, or resume it at the first divergent line.
func (pl *incrPlan) run(wk *anonymizer.Anonymizer) (FileResult, incrOut) {
	if !pl.needsEngine() {
		fc := pl.fc
		if pl.mode == modePartial { // pure-prefix shrink: trim the cache
			fc = newFileCache(pl.sum, pl.prev[:pl.p])
		}
		return FileResult{Name: pl.name, Status: FileOK, Text: fc.text}, incrOut{fc: fc, reused: fc.n}
	}
	// A full plan is the tail from line 0: prescanned, no cached prefix.
	var rs ResumeState
	if pl.p > 0 {
		rs = pl.prev[pl.p-1].next
	}
	_, tailRecs, ferr := wk.SafeAnonymizeTail(pl.name, pl.lines[pl.p:], pl.p, rs)
	if ferr != nil {
		return FileResult{Name: pl.name, Status: FileFailed, Err: ferr}, incrOut{}
	}
	fc := newFileCache(pl.sum, toLineCaches(pl.prev[:pl.p], tailRecs))
	return FileResult{Name: pl.name, Status: FileOK, Text: fc.text},
		incrOut{fc: fc, reused: pl.p, rewritten: len(tailRecs)}
}

// IncrementalCorpusContext anonymizes a corpus like
// ParallelCorpusContext, but diffs each file against the line cache of
// a prior recorded run and reprocesses only what changed: a file whose
// content hash matches is served from the cache without touching the
// engine; a file sharing a line prefix with its cached form reuses the
// prefix outputs and resumes the engine at the first divergent line;
// everything else (new files, fingerprint mismatches, first runs) is
// processed in full. The returned CorpusCache is the recording of this
// run, to be stored for the next one; prior == nil (or a fingerprint
// mismatch) makes the call a recording full run.
//
// The contract: called on a Session restored from the prior run's
// mapping state (UseStore / LoadMapping), the outputs are
// byte-identical to ParallelCorpusContext over the same corpus on the
// same restored Session, at every worker count. Strict leak-gating
// re-gates every file — including cache-served ones — against the
// corpus-wide recorder, so quarantine decisions are never stale.
// Res.Stats covers only the reprocessed work (cache-served files spend
// no engine time, which is the point); res.Incremental reports the
// split.
func (a *Anonymizer) IncrementalCorpusContext(ctx context.Context, files map[string]string, prior *CorpusCache, workers int) (*CorpusResult, *CorpusCache, error) {
	if workers < 1 {
		workers = 1
	}
	saltFP := a.cacheSaltFP()
	optsFP := a.cacheOptsFP()
	usable := prior != nil && prior.saltFP == saltFP && prior.optsFP == optsFP

	names := sortedNames(files)
	run := a.beginCorpus("incremental-corpus", len(files), workers)
	res := run.res
	res.Incremental = &IncrementalSummary{CacheInvalidated: prior != nil && !usable}
	next := &CorpusCache{saltFP: saltFP, optsFP: optsFP, files: make(map[string]*fileCache, len(files))}
	finish := func(err error) (*CorpusResult, *CorpusCache, error) {
		res, err := run.finish(err)
		return res, next, err
	}

	// Classify: longest common line-hash prefix against the cache. Line
	// records are decoded only for files whose content changed; one that
	// does not decode counts as absent.
	plans := make([]incrPlan, len(names))
	for i, n := range names {
		text := files[n]
		sum := sha256.Sum256([]byte(text))
		var fc *fileCache
		if usable {
			fc = prior.files[n]
		}
		if fc != nil && fc.sum == sum {
			plans[i] = incrPlan{name: n, mode: modeReuse, sum: sum, fc: fc}
			continue
		}
		lines := anonymizer.SplitLines(text)
		var prev []lineCache
		if fc != nil {
			prev, _ = prior.decodeLines(fc)
		}
		p := 0
		for p < len(lines) && p < len(prev) && prev[p].hash == anonymizer.LineHash(lines[p]) {
			p++
		}
		mode := modeFull
		if p > 0 {
			mode = modePartial
		}
		plans[i] = incrPlan{name: n, mode: mode, sum: sum, p: p, lines: lines, prev: prev}
	}

	// Census only the files the engine will touch: unchanged files
	// contribute no new tree insertions (their addresses are already
	// resolved in the restored state), so replaying just the changed
	// files' traces in sorted order reproduces a full run's insertion
	// sequence exactly.
	var engineNames []string
	for i := range plans {
		if plans[i].needsEngine() {
			engineNames = append(engineNames, plans[i].name)
		}
	}
	if !a.prog.opts.StatelessIP && len(engineNames) > 0 {
		if _, err := run.censusReplay(ctx, engineNames, files, workers); err != nil {
			return finish(err)
		}
	}

	// Run every plan the census did not fail on the shared worker pool,
	// then gate in sorted order (rewriteAndGate) — cache-served files are
	// re-gated too, so quarantine decisions are never stale. Each slot
	// of outs is written by exactly one goroutine.
	var work []int
	for i := range plans {
		if _, failed := res.Files[plans[i].name]; !failed {
			work = append(work, i)
		}
	}
	outs := make([]incrOut, len(work))
	results := run.rewriteAndGate(ctx, len(work), workers, "engine", func(wk *anonymizer.Anonymizer, k int) FileResult {
		pl := &plans[work[k]]
		r, o := pl.run(wk)
		outs[k] = o
		return r
	})

	for k, r := range results {
		if r == nil || r.Status == FileFailed {
			continue // cancelled before start, or dropped from the next cache
		}
		// Quarantined files keep their cache entry: the lines are valid,
		// only emission was withheld.
		pl, o := &plans[work[k]], outs[k]
		next.files[pl.name] = o.fc
		switch pl.mode {
		case modeReuse:
			res.Incremental.FilesReused++
		case modePartial:
			res.Incremental.FilesPartial++
		default:
			res.Incremental.FilesFull++
		}
		res.Incremental.LinesReused += o.reused
		res.Incremental.LinesRewritten += o.rewritten
		a.batch.countIncr(modeName(pl.mode))
	}
	return finish(ctx.Err())
}
