package anonymizer

import (
	"sync/atomic"
	"time"
)

// Stats accumulates the measurements the experiments report, plus the
// engine's per-rule instrumentation.
//
// The scalar counters are exported int64 fields; the per-rule counters
// live in dense arrays indexed by position in the Program's rule set
// (ruleSet, pack.go), read through Hits/Time/RuleHits/RuleTime. A
// Session's Stats carry that rule set; a zero Stats resolves the
// built-in rules, which hold the same positions in every set. A
// worker's Stats count one file in flight; when the file commits, Add
// merges them into the Session's Stats — one atomic add per scalar
// listed in statScalars, safe to call concurrently on a shared
// destination from parallel corpus workers — and a failed file's Stats
// are simply dropped. Every merge is a positive add, so the Session's
// counters never decrease.
//
// statScalars is the one list of the scalars: the merge, the atomic
// snapshot and the metrics collector all walk it. A reflection-driven
// test (stats_test.go) asserts that it lists every exported field, so a
// counter added later cannot be silently dropped by any of the three.
type Stats struct {
	Files               int64
	Lines               int64
	WordsTotal          int64
	CommentWordsRemoved int64
	CommentLinesRemoved int64
	TokensHashed        int64
	TokensPassed        int64
	IPsMapped           int64
	ASNsMapped          int64
	CommunitiesMapped   int64
	RegexpsRewritten    int64
	RegexpsUnchanged    int64
	RegexpFallbacks     int64

	// rules is the rule set the per-rule arrays are indexed by; nil
	// means the built-in set.
	rules *ruleSet
	// ruleHits counts how many times each rule fired, indexed by its
	// position in the rule set. Sized maxRules, the bound on any rule
	// set, so every Stats value has one type; slots past the set's last
	// rule stay zero.
	ruleHits [maxRules]int64
	// ruleTimeNs is each rule's cumulative wall time in nanoseconds:
	// each timed call's (a file's rewrite, a leak report) elapsed time
	// is split across the rules that fired in it, proportionally to
	// their hits, so the values sum, to within a nanosecond per hit, to
	// the rewrite and leak-report stage times.
	ruleTimeNs [maxRules]int64
}

// set returns the rule set the per-rule arrays are indexed by.
func (s *Stats) set() *ruleSet {
	if s.rules == nil {
		return builtinRuleSet
	}
	return s.rules
}

// Hits returns how many times the rule fired.
func (s Stats) Hits(id RuleID) int64 {
	if i, ok := s.set().index[id]; ok {
		return s.ruleHits[i]
	}
	return 0
}

// Time returns the rule's attributed cumulative wall time.
func (s Stats) Time(id RuleID) time.Duration {
	if i, ok := s.set().index[id]; ok {
		return time.Duration(s.ruleTimeNs[i])
	}
	return 0
}

// RuleHits materializes the per-rule hit counts as a map (rules that
// never fired are omitted, matching the old map-backed behavior).
func (s Stats) RuleHits() map[RuleID]int64 {
	m := make(map[RuleID]int64)
	for i, info := range s.set().infos {
		if n := s.ruleHits[i]; n != 0 {
			m[info.ID] = n
		}
	}
	return m
}

// RuleTime materializes the per-rule attributed times as a map.
func (s Stats) RuleTime() map[RuleID]time.Duration {
	m := make(map[RuleID]time.Duration)
	for i, info := range s.set().infos {
		if ns := s.ruleTimeNs[i]; ns != 0 {
			m[info.ID] = time.Duration(ns)
		}
	}
	return m
}

// AddRuleHit adds n firings of the rule (test fixtures and the engine's
// own bookkeeping; rules outside the set are ignored).
func (s *Stats) AddRuleHit(id RuleID, n int64) {
	if i, ok := s.set().index[id]; ok {
		s.ruleHits[i] += n
	}
}

// AddRuleTime attributes d to the rule.
func (s *Stats) AddRuleTime(id RuleID, d time.Duration) {
	if i, ok := s.set().index[id]; ok {
		s.ruleTimeNs[i] += int64(d)
	}
}

// Add accumulates other into s. Every add is atomic, so parallel corpus
// workers may merge into one shared destination concurrently; the
// source is read plainly and must not be written during the call.
// Both must count rules of one Program (a worker's Stats carry no rule
// set and count its Session's); a zero s takes other's rule set.
// stats_test.go walks Stats with reflection and fails if a field exists
// that statScalars does not list.
func (s *Stats) Add(other Stats) { s.add(&other) }

// add is Add reading the source in place: the engine merges a worker's
// Stats, which live in the worker, without copying them to the heap.
func (s *Stats) add(o *Stats) {
	if s.rules == nil && o.rules != nil {
		s.rules = o.rules
	}
	for _, sc := range statScalars {
		atomic.AddInt64(sc.field(s), *sc.field(o))
	}
	for i := range s.ruleHits {
		if o.ruleHits[i] != 0 {
			atomic.AddInt64(&s.ruleHits[i], o.ruleHits[i])
		}
		if o.ruleTimeNs[i] != 0 {
			atomic.AddInt64(&s.ruleTimeNs[i], o.ruleTimeNs[i])
		}
	}
}

// snapshotAtomic reads a Stats that other goroutines are Add-ing into,
// one atomic load per field, returning a plain value.
func (s *Stats) snapshotAtomic() Stats {
	out := Stats{rules: s.rules}
	for _, sc := range statScalars {
		*sc.field(&out) = atomic.LoadInt64(sc.field(s))
	}
	for i := range s.ruleHits {
		out.ruleHits[i] = atomic.LoadInt64(&s.ruleHits[i])
		out.ruleTimeNs[i] = atomic.LoadInt64(&s.ruleTimeNs[i])
	}
	return out
}

// statScalars is the one list of the Stats scalars, each with its metric
// name: Add and snapshotAtomic walk it, and so does the Session's metrics
// collector (Session.SetMetrics).
var statScalars = []struct {
	name, help string
	field      func(*Stats) *int64
}{
	{"confanon_files_processed_total", "files processed to completion by the engine (failed files are never counted)",
		func(s *Stats) *int64 { return &s.Files }},
	{"confanon_lines_total", "configuration lines processed",
		func(s *Stats) *int64 { return &s.Lines }},
	{"confanon_words_total", "words tokenized across all lines",
		func(s *Stats) *int64 { return &s.WordsTotal }},
	{"confanon_comment_words_removed_total", "words removed with comment text (§4.2 C rules)",
		func(s *Stats) *int64 { return &s.CommentWordsRemoved }},
	{"confanon_comment_lines_removed_total", "whole comment lines removed",
		func(s *Stats) *int64 { return &s.CommentLinesRemoved }},
	{"confanon_tokens_hashed_total", "tokens replaced by the salted hash (§4.1)",
		func(s *Stats) *int64 { return &s.TokensHashed }},
	{"confanon_tokens_passed_total", "tokens passed through via the pass-list",
		func(s *Stats) *int64 { return &s.TokensPassed }},
	{"confanon_ips_mapped_total", "IP address occurrences rewritten (§4.3)",
		func(s *Stats) *int64 { return &s.IPsMapped }},
	{"confanon_asns_mapped_total", "ASN occurrences rewritten (§4.4)",
		func(s *Stats) *int64 { return &s.ASNsMapped }},
	{"confanon_communities_mapped_total", "community attribute occurrences rewritten",
		func(s *Stats) *int64 { return &s.CommunitiesMapped }},
	{"confanon_regexps_rewritten_total", "BGP regexps rewritten through the language mapping",
		func(s *Stats) *int64 { return &s.RegexpsRewritten }},
	{"confanon_regexps_unchanged_total", "BGP regexps left unchanged (no public ASNs in language)",
		func(s *Stats) *int64 { return &s.RegexpsUnchanged }},
	{"confanon_regexp_fallbacks_total", "BGP regexps replaced by the conservative fallback",
		func(s *Stats) *int64 { return &s.RegexpFallbacks }},
}
