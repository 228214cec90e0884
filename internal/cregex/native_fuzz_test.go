package cregex

import (
	"sort"
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

// FuzzMinimalRegexp: for a language of up to 64 values (each two bytes
// of the input, big-endian), MinimalRegexp returns the same pattern on a
// second call, and that pattern parses back to exactly the language.
func FuzzMinimalRegexp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 189, 2, 190, 2, 191, 4, 215})
	f.Add([]byte{0, 13, 0, 26, 0, 39, 0, 52, 0, 65, 0, 78, 0, 91, 0, 104, 0, 117, 0, 130, 0, 143})
	f.Add([]byte{253, 232, 253, 233, 255, 255, 0, 1, 0, 10, 0, 100, 3, 232, 39, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		set := map[uint32]bool{}
		for i := 0; i+1 < len(data) && len(set) < 64; i += 2 {
			set[uint32(data[i])<<8|uint32(data[i+1])] = true
		}
		lang := make([]uint32, 0, len(set))
		for v := range set {
			lang = append(lang, v)
		}
		sort.Slice(lang, func(i, j int) bool { return lang[i] < lang[j] })
		pat := MinimalRegexp(lang)
		if again := MinimalRegexp(lang); again != pat {
			t.Fatalf("%v: %q, then %q", lang, pat, again)
		}
		re, err := Parse(pat)
		if err != nil {
			t.Fatalf("%v: unparseable %q: %v", lang, pat, err)
		}
		if got := re.Language(); !languagesEqual(got, lang) {
			t.Fatalf("%v: %q accepts %v", lang, pat, got)
		}
	})
}
