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
// merges them into the Session's Stats — an explicit field list of
// atomic adds, safe to call
// concurrently on a shared destination from parallel corpus workers —
// and a failed file's Stats are simply dropped. Every merge is a
// positive add, so the Session's counters never decrease.
//
// A reflection-driven test (stats_test.go) asserts that every field of
// Stats is one Add knows how to merge, so a counter added later still
// cannot be silently dropped — the guarantee moved from the merge to
// the test suite, taking the reflection cost off the hot path.
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
	// the rewrite and leak-report stage times (prescan excluded).
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
// that this list does not cover.
func (s *Stats) Add(other Stats) {
	if s.rules == nil && other.rules != nil {
		s.rules = other.rules
	}
	atomic.AddInt64(&s.Files, other.Files)
	atomic.AddInt64(&s.Lines, other.Lines)
	atomic.AddInt64(&s.WordsTotal, other.WordsTotal)
	atomic.AddInt64(&s.CommentWordsRemoved, other.CommentWordsRemoved)
	atomic.AddInt64(&s.CommentLinesRemoved, other.CommentLinesRemoved)
	atomic.AddInt64(&s.TokensHashed, other.TokensHashed)
	atomic.AddInt64(&s.TokensPassed, other.TokensPassed)
	atomic.AddInt64(&s.IPsMapped, other.IPsMapped)
	atomic.AddInt64(&s.ASNsMapped, other.ASNsMapped)
	atomic.AddInt64(&s.CommunitiesMapped, other.CommunitiesMapped)
	atomic.AddInt64(&s.RegexpsRewritten, other.RegexpsRewritten)
	atomic.AddInt64(&s.RegexpsUnchanged, other.RegexpsUnchanged)
	atomic.AddInt64(&s.RegexpFallbacks, other.RegexpFallbacks)
	for i := range s.ruleHits {
		if other.ruleHits[i] != 0 {
			atomic.AddInt64(&s.ruleHits[i], other.ruleHits[i])
		}
		if other.ruleTimeNs[i] != 0 {
			atomic.AddInt64(&s.ruleTimeNs[i], other.ruleTimeNs[i])
		}
	}
}

// snapshotAtomic reads a Stats that other goroutines are Add-ing into,
// one atomic load per field, returning a plain value. The field list
// mirrors Add.
func (s *Stats) snapshotAtomic() Stats {
	out := Stats{rules: s.rules}
	out.Files = atomic.LoadInt64(&s.Files)
	out.Lines = atomic.LoadInt64(&s.Lines)
	out.WordsTotal = atomic.LoadInt64(&s.WordsTotal)
	out.CommentWordsRemoved = atomic.LoadInt64(&s.CommentWordsRemoved)
	out.CommentLinesRemoved = atomic.LoadInt64(&s.CommentLinesRemoved)
	out.TokensHashed = atomic.LoadInt64(&s.TokensHashed)
	out.TokensPassed = atomic.LoadInt64(&s.TokensPassed)
	out.IPsMapped = atomic.LoadInt64(&s.IPsMapped)
	out.ASNsMapped = atomic.LoadInt64(&s.ASNsMapped)
	out.CommunitiesMapped = atomic.LoadInt64(&s.CommunitiesMapped)
	out.RegexpsRewritten = atomic.LoadInt64(&s.RegexpsRewritten)
	out.RegexpsUnchanged = atomic.LoadInt64(&s.RegexpsUnchanged)
	out.RegexpFallbacks = atomic.LoadInt64(&s.RegexpFallbacks)
	for i := range s.ruleHits {
		out.ruleHits[i] = atomic.LoadInt64(&s.ruleHits[i])
		out.ruleTimeNs[i] = atomic.LoadInt64(&s.ruleTimeNs[i])
	}
	return out
}
