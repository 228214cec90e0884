package cregex

import (
	"testing"
)

// FuzzParsePattern is the native Go fuzz target the ci.sh smoke pass
// drives (the grammar-directed randomized tests in fuzz_test.go stay as
// the deterministic tier-1 versions). Patterns come out of
// attacker-controlled configs, so the parser must never panic, and any
// pattern it accepts must reprint to a form it accepts again.
func FuzzParsePattern(f *testing.F) {
	f.Add("701")
	f.Add("(701|1239)_[0-9]+")
	f.Add("_701_")
	f.Add("^65[0-9]*$")
	f.Add("([1-3]|4?5+)*")
	f.Add("((((")
	f.Add("[9-0]")
	f.Add("[0-]") // regression: trailing '-' is a literal member; reprint escapes it
	f.Add("[\\-0]")
	f.Fuzz(func(t *testing.T, pattern string) {
		re, err := Parse(pattern) // must not panic
		if err != nil {
			return
		}
		printed := re.String()
		if _, err := Parse(printed); err != nil {
			t.Fatalf("accepted %q but rejected its own reprint %q: %v", pattern, printed, err)
		}
	})
}

// FuzzLanguageMatchesNFA: for every pattern Parse accepts, the lazy-DFA
// enumeration (trie walk, bitset read-out) must return exactly the
// direct NFA simulation's language, in the same increasing order.
func FuzzLanguageMatchesNFA(f *testing.F) {
	for _, p := range languageCrossCheckPatterns {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		re, err := Parse(pattern)
		if err != nil {
			return
		}
		fast, slow := re.Language(), re.languageNFA()
		if !languagesEqual(fast, slow) {
			t.Fatalf("%q: DFA language (%d values) differs from NFA language (%d values)", pattern, len(fast), len(slow))
		}
	})
}
