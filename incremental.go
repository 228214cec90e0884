package confanon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strings"
	"sync/atomic"

	"confanon/internal/anonymizer"
	"confanon/internal/rulepack"
	"confanon/internal/store"
)

// Incremental re-anonymization: a recorded run stores, per file, the
// SHA-256 of its cleartext and its output. A later run over a mutated
// corpus serves every file whose content hash matches from the cache and
// runs every other file through the corpus driver in full — producing
// output byte-identical to re-anonymizing the whole corpus from the same
// restored mapping state (a golden test pins this at several worker
// counts).
//
// The identity argument: in a full run from restored state, every
// address an unchanged file references is already resolved in the tree
// (the prior run resolved it and the ledger/state restore replayed it),
// so unchanged files contribute no new tree insertions. The insertion
// sequence of a full run is therefore exactly the pins of the changed
// files in sorted-name order followed by their full sequences — which
// is precisely what the driver replays when the unchanged files are
// served from the cache.

// CorpusCacheSchema identifies the incremental file cache's binary
// layout; it opens every cache blob.
const CorpusCacheSchema = "confanon.filecache/v4"

// CorpusCache is the persistent artifact of a recorded run: per file,
// the SHA-256 of its cleartext and its output, and a record of the
// strict gate those outputs passed. It stores only
// anonymized output — never cleartext, which is represented solely by
// its hash. The salt and options fingerprints cover the
// mapping-relevant configuration; a cache whose fingerprints do not
// match the current session is ignored wholesale (every file
// reprocessed) rather than half-trusted. Like the mapping ledger, the
// cache holds values derived from cleartext — store it with the same
// care as the salt.
//
// A reused file's output is a substring of the blob the cache was
// decoded from, and Encode copies its section verbatim. The layout is
// documented in filecache.go.
type CorpusCache struct {
	saltFP, optsFP string
	gate           gateRecord
	files          map[string]*fileCache
}

// gateRecord is what a cache knows of the strict gate its outputs
// passed: whether the run gated at all, under which
// anonymizer.GateRevision, the recorder's sizes it gated against, and
// the files it quarantined (sorted). Every other file of a strict
// recording was clean against that recorder.
type gateRecord struct {
	strict      bool
	revision    uint64
	sizes       anonymizer.RecorderSizes
	quarantined []string
}

// vouches reports whether the record vouches for its clean files on a
// Session whose recorder has the given sizes: the run gated, under this
// build's gate revision, against a recorder of the same sizes. A
// recorder only grows, and a Session restored from the ledger the
// recording run appended to holds at least what it gated against, so
// equal sizes mean the same values.
func (g *gateRecord) vouches(sizes anonymizer.RecorderSizes) bool {
	return g.strict && g.revision == anonymizer.GateRevision && g.sizes == sizes
}

// wasQuarantined reports whether the recording run quarantined name.
func (g *gateRecord) wasQuarantined(name string) bool {
	_, ok := slices.BinarySearch(g.quarantined, name)
	return ok
}

// maxDeltaScan caps the values a run may add to the recorder before
// every cache-served file is gated in full: each added value costs one
// substring search over a served file's text, and past this many the
// searches cost about as much as the gate itself.
const maxDeltaScan = 8

// fileCache is one file's cache entry. An entry decoded from a blob
// keeps its encoded section; an entry a run built has none.
type fileCache struct {
	sum     [sha256.Size]byte
	text    string // the file's output
	section string // the entry as encoded in the blob it came from
}

// IncrementalSummary reports how an incremental run dispatched its
// files: reused whole from the cache, or reprocessed in full. Line
// counts cover the same split, in input lines. FilesGated counts the
// reused files the strict gate scanned in full: those whose text holds
// a value the recorder gained this run, and every reused file when the
// cache cannot vouch for the recorder (see IncrementalCorpusContext).
// CacheInvalidated is set when a prior cache was supplied but its
// fingerprints did not match the session (wrong salt, changed options,
// or changed sensitive tokens), forcing a full run.
type IncrementalSummary struct {
	FilesReused      int  `json:"files_reused"`
	FilesFull        int  `json:"files_full"`
	FilesGated       int  `json:"files_gated"`
	LinesReused      int  `json:"lines_reused"`
	LinesRewritten   int  `json:"lines_rewritten"`
	CacheInvalidated bool `json:"cache_invalidated,omitempty"`
}

// cacheSaltFP is the salt fingerprint both the mapping ledger and the
// corpus cache are keyed by.
func (a *Anonymizer) cacheSaltFP() string { return store.SaltFingerprint(a.prog.opts.Salt) }

// cacheOptsFP fingerprints every non-salt input that can change a
// file's output: the regexp style, comment retention, the IP scheme,
// the compiled rule packs (swapping or editing a pack can rewrite any
// line, so it invalidates every cached file), and the session's
// operator-added sensitive tokens (a token added since the cache was
// recorded invalidates every cached file — the token could appear
// anywhere). Strict mode is deliberately absent: it gates emission,
// never alters a line, and the cache's gate record covers it.
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

// textHasher computes SHA-256 of strings without copying each one to a
// []byte: the text goes through a fixed buffer. The digest has no
// WriteString, so io.WriteString would still copy the whole string.
// buf and out are fields because slices passed to the hash.Hash
// interface escape: as locals they would be allocated on every call.
type textHasher struct {
	h   hash.Hash
	buf [8 << 10]byte
	out [sha256.Size]byte
}

func newTextHasher() *textHasher { return &textHasher{h: sha256.New()} }

// sum returns sha256.Sum256 of text.
func (t *textHasher) sum(text string) [sha256.Size]byte {
	t.h.Reset()
	for len(text) > 0 {
		n := copy(t.buf[:], text)
		t.h.Write(t.buf[:n])
		text = text[n:]
	}
	t.h.Sum(t.out[:0])
	return t.out
}

// lineCount is the number of lines the engine iterates in text.
func lineCount(text string) int {
	n := strings.Count(text, "\n")
	if text != "" && !strings.HasSuffix(text, "\n") {
		n++
	}
	return n
}

// IncrementalCorpusContext anonymizes a corpus like
// ParallelCorpusContext, serving from the cache of a prior recorded run
// every file whose content hash matches its entry: such a file skips
// the engine and its output is the cached text. Every other file (an
// edited or new one, or every file on a first run or a fingerprint
// mismatch) is a changed file, and runs through the same driver as
// ParallelCorpusContext, whole. The returned CorpusCache is the
// recording of this run, to be stored for the next one; prior == nil
// (or a fingerprint mismatch) makes the call a recording full run.
//
// The contract: called on a Session restored from the prior run's
// mapping state (UseStore / LoadMapping), the outputs are
// byte-identical to ParallelCorpusContext over the same corpus on the
// same restored Session, at every worker count, and so are the statuses
// and the leaks of quarantined files. Strict leak-gating scans every
// changed file. A served file's output is unchanged, so only a value
// the recorder gained since the cache was recorded can make a clean one
// dirty: when the cache vouches for the restored recorder (it was
// recorded under Options.Strict and this GateRevision, against a
// recorder of the sizes the Session starts with), a served file the
// cache did not quarantine is scanned only if its text contains a value
// this run added — an ASN, a word or a canonical dotted quad — and
// stays clean otherwise. Every other served file is scanned in full, as
// is every served file when the cache cannot vouch or the run added
// more than a few values. Res.Stats counts the changed files, whole
// (cache-served files spend no engine time, which is the point), and
// the leak counters and RuleLeakHighlight hits count only the files
// the gate scanned; res.Incremental reports the split.
func (a *Anonymizer) IncrementalCorpusContext(ctx context.Context, files map[string]string, prior *CorpusCache, workers int) (*CorpusResult, *CorpusCache, error) {
	if workers < 1 {
		workers = 1
	}
	saltFP := a.cacheSaltFP()
	optsFP := a.cacheOptsFP()
	usable := prior != nil && prior.saltFP == saltFP && prior.optsFP == optsFP

	// Classify by whole file: a content-hash match is served from the
	// cache, everything else is changed.
	served := make(map[string]string)
	sums := make(map[string][sha256.Size]byte, len(files))
	th := newTextHasher()
	for n, text := range files {
		sum := th.sum(text)
		if usable {
			if fc := prior.files[n]; fc != nil && fc.sum == sum {
				served[n] = fc.text
				continue
			}
		}
		sums[n] = sum
	}

	run := a.beginCorpus("incremental-corpus", len(files), workers)
	sum := &IncrementalSummary{CacheInvalidated: prior != nil && !usable}
	run.res.Incremental = sum
	next := &CorpusCache{saltFP: saltFP, optsFP: optsFP, files: make(map[string]*fileCache, len(files))}

	delta := a.sess.TrackRecorder()
	defer delta.Stop()
	vouched := a.strict && usable && prior.gate.vouches(delta.From)
	if !vouched {
		delta.Stop() // the gate needs only the recorder's sizes
	}
	var gated atomic.Int64
	filter := func() func(name, text string) bool {
		vals, sizes := delta.Stop()
		next.gate = gateRecord{strict: true, revision: anonymizer.GateRevision, sizes: sizes}
		scan := vouched && len(vals) <= maxDeltaScan
		return func(name, text string) bool {
			if _, ok := served[name]; !ok {
				return true
			}
			if scan && !prior.gate.wasQuarantined(name) && !containsAny(text, vals) {
				return false
			}
			gated.Add(1)
			return true
		}
	}
	results, err := run.anonymize(ctx, files, served, filter, workers)
	for _, r := range results {
		if r == nil || r.Status == FileFailed {
			continue // cancelled before start, or dropped from the next cache
		}
		// Quarantined files keep their cache entry: the output is valid,
		// only emission was withheld.
		if run.res.Files[r.Name].Status == FileQuarantined {
			next.gate.quarantined = append(next.gate.quarantined, r.Name)
		}
		lines := lineCount(files[r.Name])
		if _, ok := served[r.Name]; ok {
			next.files[r.Name] = prior.files[r.Name]
			sum.FilesReused++
			sum.LinesReused += lines
			a.batch.countIncr("reused")
		} else {
			next.files[r.Name] = &fileCache{sum: sums[r.Name], text: r.Text}
			sum.FilesFull++
			sum.LinesRewritten += lines
			a.batch.countIncr("full")
		}
	}
	sum.FilesGated = int(gated.Load())
	res, err := run.finish(err)
	return res, next, err
}

// containsAny reports whether text contains any of vals.
func containsAny(text string, vals []string) bool {
	for _, v := range vals {
		if strings.Contains(text, v) {
			return true
		}
	}
	return false
}
