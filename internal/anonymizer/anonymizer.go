package anonymizer

import (
	"confanon/internal/asn"
	"confanon/internal/cregex"
	"confanon/internal/ipanon"
	"confanon/internal/passlist"
	"confanon/internal/rulepack"
	"confanon/internal/trace"
)

// Options configures an Anonymizer.
type Options struct {
	// Salt is the network owner's secret. Everything keyed — the word
	// hash, the IP mapping tree, the ASN and community permutations —
	// derives from it, so one salt reproduces one consistent mapping.
	Salt []byte
	// KeepComments disables comment stripping (for measurement only; the
	// paper strips all comments unconditionally).
	KeepComments bool
	// Style selects alternation (paper default) or minimal-DFA output
	// for rewritten regexps.
	Style cregex.Style
	// RulePacks are additional declarative rule packs (parsed and
	// validated by internal/rulepack) merged into the Program's dispatch
	// inventory ahead of the built-ins. Merge failures — duplicate rule
	// IDs across packs, unresolvable builtin references — panic in
	// Compile and are reported by CompileChecked.
	RulePacks []*rulepack.Pack
	// StatelessIP selects the cryptographic (Crypto-PAn) IP scheme
	// instead of the shaped tree. It gives up class and subnet-address
	// preservation in exchange for a mapping that depends only on the
	// salt — the §4.3 trade-off — which is what makes independent
	// anonymizer instances consistent with each other and therefore
	// parallelizable (and single-pass streamable: see StreamText).
	StatelessIP bool
	// Tracer, when set, records a hierarchical span trace (corpus →
	// file → stage → rule) and a provenance ledger of every
	// anonymization decision. The ledger carries only anonymized
	// replacements, never cleartext (trace.go); nil — the default —
	// keeps the hot path free of any tracing cost.
	Tracer *trace.Tracer
}

// Anonymizer is one single-goroutine worker of a Session: it rewrites
// configuration text through the Session's shared state (the IP mapping,
// the leak recorder) while keeping its hot-path scratch — statistics,
// pending recorder entries, dispatch context — private, committing into
// the Session once per file (unit, fault.go). One worker is not safe for
// concurrent use, but any number of workers of the same Session may run
// concurrently (Session.Acquire/Release); New returns a Session-bound
// worker for the common single-goroutine case.
type Anonymizer struct {
	prog *Program
	sess *Session

	// Immutable snapshots from the Program (opts/pass/perms/rules) and
	// the Session (ip, sensitiveTokens; refreshed on Acquire).
	opts  Options
	pass  *passlist.List
	ip    ipanon.Mapper
	perms asn.Salted
	rules *ruleSet

	// lineShield holds values a pack line rule produced on the current
	// line; the generic pass leaves them alone (see pack.go). Nil until
	// a pack rule first fires — the no-pack hot path never touches it.
	lineShield map[string]bool

	// stats counts the file in flight only: unit adds it to the Session
	// when the file commits and drops it when the file fails (fault.go).
	stats Stats

	// ctx is the engine's reusable dispatch context.
	ctx lineCtx

	// Per-line scratch, reused by every line so the line loop allocates
	// only what it publishes: tok holds the line's words and gaps
	// (processLine), gen the generic pass's leads, cores and
	// trails (genericWords), out the basic method's rewritten word
	// (hashIfPrivileged, hashAllSegments). What they hold is valid only
	// until the next line; nothing may keep a slice of them past it.
	tok []string
	gen []string
	out []byte

	// metrics holds the handles for the events this engine pushes into
	// the Session's registry (metrics.go); nil means no registry wired.
	metrics *engineMetrics

	// Fault-isolation scratch: the file name and 1-based line currently
	// being processed, recorded so a recovered panic can be pinned to a
	// location (fault.go).
	curFile string
	curLine int

	// Tracing state (trace.go): the Session's tracer (nil = untraced),
	// the batch-level corpus span this worker's file spans nest under,
	// the open file span, the buffered provenance decisions of the file
	// in flight, and the last rule that fired on the current line
	// (ledger attribution).
	tracer     *trace.Tracer
	corpusSpan trace.SpanID
	fileSpan   *trace.Span
	pending    []trace.Decision
	curRule    RuleID

	// tmpl is the Template the census in flight fills in place of
	// mapping (template.go); nil while the worker maps for real. own is
	// the Template the worker censuses its own files into (rewrite).
	tmpl, own *Template

	// Leak recorder (§6.1), pending half: every public ASN, hashed word,
	// and mapped original address the file in flight has seen. Published
	// into the Session's recorder at every file boundary, failed or not;
	// never retracted (an aborted file can only widen later leak reports,
	// matching the fail-closed direction).
	seenASNs  map[string]bool
	seenWords map[string]bool
	seenIPs   map[uint32]bool

	// sensitiveTokens is the worker's read-only snapshot of the Session's
	// operator-added rules (copy-on-write there; refreshed on Acquire).
	sensitiveTokens map[string]bool
}

// New creates a Session for one owner salt and returns a worker acquired
// from it — the convenience constructor for serial use. Callers that
// share one mapping across goroutines should Compile a Program, derive a
// Session, and Acquire a worker per goroutine instead.
func New(opts Options) *Anonymizer {
	return Compile(opts).NewSession().Acquire()
}

// Session returns the Session this worker reconciles into.
func (a *Anonymizer) Session() *Session { return a.sess }

// Stats returns the accumulated counters: the Session's merged record
// (a worker keeps nothing between files; see unit).
func (a *Anonymizer) Stats() Stats { return a.sess.Stats() }

// IPMapping exposes the resolved IP pairs (for validation tooling).
func (a *Anonymizer) IPMapping() []ipanon.Pair { return a.ip.Mapping() }

// SaveMapping serializes the IP mapping state so a later run (same salt)
// can anonymize additional configurations consistently with this one.
// Only the shaped tree carries state; under StatelessIP the mapping is a
// pure function of the salt and the snapshot is empty.
func (a *Anonymizer) SaveMapping() []byte { return a.sess.SaveMapping() }

// LoadMapping restores a snapshot produced by SaveMapping. It must be
// called before any anonymization and with the same salt; an error is
// returned when the snapshot does not replay to the same mapping.
func (a *Anonymizer) LoadMapping(snapshot []byte) error {
	if err := a.sess.LoadMapping(snapshot); err != nil {
		return err
	}
	a.ip = a.sess.mapper()
	return nil
}

// MapASN exposes the ASN permutation (for validation tooling).
func (a *Anonymizer) MapASN(v uint32) uint32 { return a.perms.ASN.Map(v) }

// MapIP exposes the IP mapping (for validation tooling).
func (a *Anonymizer) MapIP(v uint32) uint32 { return a.ip.MapV4(v) }

// HashWord exposes the salted word hash (for validation tooling).
func (a *Anonymizer) HashWord(w string) string { return hashWord(a.opts.Salt, w) }

// AddSensitiveToken registers an operator-supplied rule: the literal token
// is anonymized wherever it appears from now on. This is the mechanism of
// the iterative leak-closure methodology (§6.1): lines a human flags as
// dangerous are used to add more rules to the anonymizer. The rule is
// registered Session-wide; this worker sees it immediately, other
// in-flight workers on their next Acquire.
func (a *Anonymizer) AddSensitiveToken(tok string) {
	a.sess.AddSensitiveToken(tok)
	a.sensitiveTokens = *a.sess.sensTok.Load()
}

// hit records one firing of a rule in its hit counter, which the
// engine's wall-time attribution also reads: one read of the Program's
// taxonomy index, then one array write — no map mutation on the
// per-token path.
func (a *Anonymizer) hit(r RuleID) {
	a.curRule = r
	if i, ok := a.rules.index[r]; ok {
		a.stats.ruleHits[i]++
	}
}

// AnonymizeText anonymizes one configuration file. Under the shaped
// tree the prefixes it maps resolve shortest first, ahead of its own
// order (see rewrite). It is fail-open: a panic propagates to the caller
// (SafeAnonymizeText is the fail-closed form).
func (a *Anonymizer) AnonymizeText(text string) (out string) {
	failOpen(a.unit("", "", func() (err error) {
		out, err = a.rewrite(text)
		return err
	}))
	return out
}

func (a *Anonymizer) stripComments() bool { return !a.opts.KeepComments }
