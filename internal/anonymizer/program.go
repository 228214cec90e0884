package anonymizer

import (
	"slices"
	"sync"
	"sync/atomic"

	"confanon/internal/asn"
	"confanon/internal/cregex"
	"confanon/internal/metrics"
	"confanon/internal/passlist"
	"confanon/internal/rulepack"
)

// Program is the immutable compiled half of the anonymizer: everything
// that is a pure function of the owner salt and the options. It carries
// the pass-list index, the salt-derived ASN and community-value
// permutations, and a memoized regexp-rewrite cache. A Program holds no
// per-corpus state, so one Program may be shared by any number of
// Sessions (and their workers) concurrently; the mutable half — the IP
// mapping, the leak recorder, the statistics — lives in Session.
type Program struct {
	opts  Options
	pass  *passlist.List
	perms asn.Salted

	// rules is the compiled rule inventory, taxonomy and dispatch
	// tables: the canonical built-in pack merged with Options.RulePacks
	// (pack.go). Programs without user packs share the init-compiled
	// builtin set.
	rules *ruleSet

	// rewrites memoizes cregex pattern rewrites keyed by (kind, pattern).
	// The rewrite is a pure function of the pattern and the salt-derived
	// permutations, so the first caller computes it once (singleflight via
	// sync.Once) and every later occurrence — same file, other files,
	// other sessions — replays the cached result and its recorded ASNs.
	rewrites    sync.Map // rewriteKey → *rewriteEntry
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// metRegs lists the registries the Program's counters are exposed
	// in (collectInto), guarded by metMu.
	metMu   sync.Mutex
	metRegs []*metrics.Registry
}

type rewriteKey struct {
	kind    byte // 'a' = AS-path regexp, 'c' = community regexp
	pattern string
}

type rewriteEntry struct {
	once sync.Once
	res  cregex.Result
	err  error
	// asns lists (deduplicated, in first-mapped order) the public ASNs
	// the rewrite permuted; they are replayed into each caller's leak
	// recorder so a cache hit records exactly what a fresh rewrite would.
	asns []uint32
}

// Compile builds the immutable Program for one owner salt. The result is
// safe for concurrent use and is meant to be built once and shared.
// Compile panics when Options.RulePacks do not merge (duplicate rule
// IDs, unresolvable builtin references, taxonomy conflicts); callers
// loading operator-supplied packs should use CompileChecked.
func Compile(opts Options) *Program {
	p, err := CompileChecked(opts)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileChecked is Compile with pack-merge errors reported instead of
// panicking. Packs already validated by rulepack.Parse can still fail
// here: validity is a property of one document, mergeability of the
// set (cross-pack duplicate IDs, taxonomy conflicts or overflow, stage
// references).
func CompileChecked(opts Options) (*Program, error) {
	rules := builtinRuleSet
	if len(opts.RulePacks) > 0 {
		var err error
		rules, err = compileRuleSet(opts.RulePacks)
		if err != nil {
			return nil, err
		}
	}
	return &Program{opts: opts, pass: builtinPass(), perms: asn.NewSalted(opts.Salt), rules: rules}, nil
}

// builtinPass is the built-in pass-list, built by the first Compile (not
// at process start) and shared read-only by every Program.
var builtinPass = sync.OnceValue(passlist.Builtin)

// Rules returns the Program's rule inventory: the built-in rules in
// canonical order (the package-level Rules), then the rules its packs
// define, in load order.
func (p *Program) Rules() []RuleInfo { return slices.Clone(p.rules.infos) }

// Options returns the options the Program was compiled with.
func (p *Program) Options() Options { return p.opts }

// Packs returns the identity of every pack compiled into this Program,
// the canonical built-in pack first, then Options.RulePacks in load
// order. These are the identities the run report, the bench policy
// fingerprint, and conftrace drift detection thread through.
func (p *Program) Packs() []rulepack.Meta {
	out := make([]rulepack.Meta, len(p.rules.packs))
	// compileRuleSet appends the builtin pack last (user rules dispatch
	// first); report it first — it is the baseline everything extends.
	n := len(out)
	out[0] = p.rules.packs[n-1]
	copy(out[1:], p.rules.packs[:n-1])
	return out
}

// CacheHits reports how many regexp rewrites were answered from the memo.
func (p *Program) CacheHits() int64 { return p.cacheHits.Load() }

// CacheMisses reports how many regexp rewrites were computed (one per
// distinct pattern per kind).
func (p *Program) CacheMisses() int64 { return p.cacheMisses.Load() }

// ASNCycleWalks reports the cycle-walking steps the Program's ASN
// permutation has taken (§4.4; expected on ≈1.6% of maps).
func (p *Program) ASNCycleWalks() int64 { return p.perms.ASN.CycleWalks() }

// rewrite memoizes one pattern rewrite. compute runs at most once per
// (kind, pattern); record receives every ASN the (possibly cached)
// rewrite permuted, so the caller's leak recorder sees the same entries
// a fresh rewrite would have produced.
func (p *Program) rewrite(key rewriteKey, record func(uint32),
	compute func(perm func(uint32) uint32) (cregex.Result, error)) (cregex.Result, error) {

	v, _ := p.rewrites.LoadOrStore(key, &rewriteEntry{})
	e := v.(*rewriteEntry)
	computed := false
	e.once.Do(func() {
		computed = true
		seen := make(map[uint32]bool)
		perm := func(a uint32) uint32 {
			out := p.perms.ASN.Map(a)
			if out != a && !seen[a] {
				seen[a] = true
				e.asns = append(e.asns, a)
			}
			return out
		}
		e.res, e.err = compute(perm)
	})
	if computed {
		p.cacheMisses.Add(1)
	} else {
		p.cacheHits.Add(1)
	}
	for _, a := range e.asns {
		record(a)
	}
	return e.res, e.err
}

// rewriteASN rewrites an AS-path regexp through the memo.
func (p *Program) rewriteASN(pattern string, record func(uint32)) (cregex.Result, error) {
	return p.rewrite(rewriteKey{kind: 'a', pattern: pattern}, record,
		func(perm func(uint32) uint32) (cregex.Result, error) {
			return cregex.RewriteASN(pattern, perm, p.opts.Style)
		})
}

// rewriteCommunity rewrites a community regexp through the memo.
func (p *Program) rewriteCommunity(pattern string, record func(uint32)) (cregex.Result, error) {
	return p.rewrite(rewriteKey{kind: 'c', pattern: pattern}, record,
		func(perm func(uint32) uint32) (cregex.Result, error) {
			return cregex.RewriteCommunity(pattern, perm, p.perms.Value.Map, p.opts.Style)
		})
}
