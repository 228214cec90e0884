package cregex

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, pattern string) *Regexp {
	t.Helper()
	re, err := Parse(pattern)
	if err != nil {
		t.Fatalf("Parse(%q): %v", pattern, err)
	}
	return re
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(701", "70[1-", "[", "*", "70**(", "a\\", "_*", "[5-1]"}
	for _, p := range bad {
		if _, err := Parse(p); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", p)
		}
	}
}

func TestMatchToken(t *testing.T) {
	cases := []struct {
		pattern string
		token   string
		want    bool
	}{
		{"701", "701", true},
		{"701", "7012", false},
		{"701", "1701", false},
		{"70[1-3]", "701", true},
		{"70[1-3]", "702", true},
		{"70[1-3]", "703", true},
		{"70[1-3]", "704", false},
		{"70[1-3]", "70", false},
		{"_1239_", "1239", true},
		{"_1239_", "12390", false},
		{"(_1239_|_70[2-5]_)", "1239", true},
		{"(_1239_|_70[2-5]_)", "702", true},
		{"(_1239_|_70[2-5]_)", "705", true},
		{"(_1239_|_70[2-5]_)", "701", false},
		{"^701$", "701", true},
		{"^701$", "7010", false},
		{".*", "65535", true},
		{".*", "", true},
		{"70.", "701", true},
		{"70.", "70", false},
		{"7[0-9]+", "70", true},
		{"7[0-9]+", "7999", true},
		{"7[0-9]+", "7", false},
		{"70?1", "71", true},
		{"70?1", "701", true},
		{"70?1", "7001", false},
		{"[^0]01", "101", true},
		{"[^0]01", "001", false},
		{"701:7[1-5]..", "701:7100", true},
		{"701:7[1-5]..", "701:7599", true},
		{"701:7[1-5]..", "701:7600", false},
		{"701:7[1-5]..", "701:710", false},
		{"_1239_.*_701_", "1239", false}, // two bounded numbers cannot share one token
		{"", "", true},
		{"", "1", false},
	}
	for _, c := range cases {
		re := mustParse(t, c.pattern)
		if got := re.MatchToken(c.token); got != c.want {
			t.Errorf("MatchToken(%q, %q) = %v, want %v", c.pattern, c.token, got, c.want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	patterns := []string{
		"701", "70[1-3]", "_1239_", "(_1239_|_70[2-5]_)", "^701$",
		".*", "7[0-9]+", "70?1", "[^0]01", "701:7[1-5]..", "(1|2|3)",
		"a\\*b", "((70)1)*",
	}
	for _, p := range patterns {
		re := mustParse(t, p)
		re2 := mustParse(t, re.String())
		// The reprint must accept the same language.
		l1, l2 := re.Language(), re2.Language()
		if len(l1) != len(l2) {
			t.Fatalf("round-trip of %q changed language size: %d -> %d (reprint %q)",
				p, len(l1), len(l2), re.String())
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("round-trip of %q changed language at %d", p, i)
			}
		}
	}
}

func TestLanguage(t *testing.T) {
	cases := []struct {
		pattern string
		want    []uint32
	}{
		{"70[1-3]", []uint32{701, 702, 703}},
		{"_1239_", []uint32{1239}},
		{"(_1239_|_70[2-5]_)", []uint32{702, 703, 704, 705, 1239}},
		{"6451[12]", []uint32{64511, 64512}},
		{"9999[5-9]", nil}, // above the 16-bit universe
	}
	for _, c := range cases {
		got := mustParse(t, c.pattern).Language()
		if len(got) != len(c.want) {
			t.Fatalf("Language(%q) = %v, want %v", c.pattern, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Language(%q)[%d] = %d, want %d", c.pattern, i, got[i], c.want[i])
			}
		}
	}
	if !AcceptsAll(mustParse(t, ".*").Language()) {
		t.Error(".* does not accept the whole universe")
	}
	if !AcceptsAll(mustParse(t, "[0-9]+").Language()) {
		t.Error("[0-9]+ does not accept the whole universe")
	}
}

func TestMatchASN(t *testing.T) {
	re := mustParse(t, "70[1-5]")
	for a := uint32(700); a <= 706; a++ {
		want := a >= 701 && a <= 705
		if got := re.MatchASN(a); got != want {
			t.Errorf("MatchASN(%d) = %v, want %v", a, got, want)
		}
	}
}

func languagesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMinimalRegexp(t *testing.T) {
	cases := [][]uint32{
		{701, 702, 703},
		{1239},
		{702, 703, 704, 705, 1239},
		{0},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{100, 200, 300, 1000, 2000, 65535},
		{},
	}
	for _, lang := range cases {
		pat := MinimalRegexp(lang)
		re, err := Parse(pat)
		if err != nil {
			t.Fatalf("MinimalRegexp(%v) emitted unparseable %q: %v", lang, pat, err)
		}
		if got := re.Language(); !languagesEqual(got, lang) {
			t.Errorf("MinimalRegexp(%v) = %q accepts %v", lang, pat, got)
		}
	}
}

func TestMinimalRegexpCompression(t *testing.T) {
	// A contiguous digit range must compress to a class, far shorter
	// than the alternation.
	lang := []uint32{701, 702, 703, 704, 705}
	min := MinimalRegexp(lang)
	alt := AlternationRegexp(lang)
	if len(min) >= len(alt) {
		t.Errorf("minimal %q (%d) not shorter than alternation %q (%d)", min, len(min), alt, len(alt))
	}
	if !strings.Contains(min, "[") {
		t.Errorf("minimal %q did not compress the range to a class", min)
	}
}

func TestMinimalRegexpLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large DFA reconstruction")
	}
	var lang []uint32
	for v := uint32(0); v < 65536; v += 7 {
		lang = append(lang, v)
	}
	pat := MinimalRegexp(lang)
	re, err := Parse(pat)
	if err != nil {
		t.Fatalf("large minimal regexp unparseable: %v", err)
	}
	got := re.Language()
	if !languagesEqual(got, lang) {
		t.Fatalf("large minimal regexp accepts %d values, want %d", len(got), len(lang))
	}
}

func TestAlternationRegexp(t *testing.T) {
	if got := AlternationRegexp([]uint32{701, 702, 703}); got != "(701|702|703)" {
		t.Errorf("AlternationRegexp = %q", got)
	}
	re := mustParse(t, AlternationRegexp([]uint32{1, 65535}))
	if !re.MatchASN(1) || !re.MatchASN(65535) || re.MatchASN(2) {
		t.Error("alternation regexp wrong language")
	}
}

// testPerm is a fixed, easily-inverted permutation for rewrite tests:
// public ASNs are rotated by 1000 within the public range.
func testPerm(a uint32) uint32 {
	if a < 1 || a > 64511 {
		return a
	}
	return (a-1+1000)%64511 + 1
}

func TestRewriteASNLiterals(t *testing.T) {
	res, err := RewriteASN("_1239_", testPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	want := "_2239_"
	if res.Pattern != want {
		t.Errorf("RewriteASN(_1239_) = %q, want %q", res.Pattern, want)
	}
	if !res.Changed || res.Mapped != 1 {
		t.Errorf("unexpected result meta: %+v", res)
	}
}

func TestRewriteASNRange(t *testing.T) {
	res, err := RewriteASN("70[1-3]", testPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	re := mustParse(t, res.Pattern)
	for a := uint32(701); a <= 703; a++ {
		if !re.MatchASN(testPerm(a)) {
			t.Errorf("rewritten %q does not accept perm(%d)=%d", res.Pattern, a, testPerm(a))
		}
		if re.MatchASN(a) && testPerm(a) != a {
			// The original value should not be accepted unless it
			// happens to be the image of another member.
			img := false
			for b := uint32(701); b <= 703; b++ {
				if testPerm(b) == a {
					img = true
				}
			}
			if !img {
				t.Errorf("rewritten %q still accepts original %d", res.Pattern, a)
			}
		}
	}
}

// TestRewritePreservesLanguageBijection is the paper's correctness
// condition: for every ASN a, orig accepts a iff rewritten accepts perm(a).
func TestRewritePreservesLanguageBijection(t *testing.T) {
	patterns := []string{
		"70[1-3]",
		"_1239_",
		"(_1239_|_70[2-5]_)",
		"123[0-9]",
		"ـ", // exotic bytes should fail parse, skipped below
		"7..",
		"65[0-4]..",
	}
	for _, p := range patterns {
		orig, err := Parse(p)
		if err != nil {
			continue
		}
		for _, style := range []Style{Alternation, Minimal} {
			res, err := RewriteASN(p, testPerm, style)
			if err != nil {
				t.Fatalf("RewriteASN(%q): %v", p, err)
			}
			rew := mustParse(t, res.Pattern)
			origLang := orig.Language()
			wantSet := make(map[uint32]bool, len(origLang))
			for _, a := range origLang {
				wantSet[testPerm(a)] = true
			}
			gotLang := rew.Language()
			if len(gotLang) != len(wantSet) {
				t.Fatalf("style %v: rewrite of %q accepts %d values, want %d (pattern %q)",
					style, p, len(gotLang), len(wantSet), res.Pattern)
			}
			for _, v := range gotLang {
				if !wantSet[v] {
					t.Fatalf("style %v: rewrite of %q accepts %d which is not perm(orig)", style, p, v)
				}
			}
		}
	}
}

func TestRewritePrivateOnlyUnchanged(t *testing.T) {
	// 645[2-9][0-9] covers 64520-64599, all private.
	p := "645[2-9][0-9]"
	res, err := RewriteASN(p, testPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed || res.Pattern != p {
		t.Errorf("private-only pattern changed: %+v", res)
	}
}

func TestRewriteUniverseUnchanged(t *testing.T) {
	for _, p := range []string{".*", "[0-9]+", ".+|^$"} {
		res, err := RewriteASN(p, testPerm, Alternation)
		if err != nil {
			t.Fatalf("RewriteASN(%q): %v", p, err)
		}
		if res.Changed {
			t.Errorf("universe pattern %q was rewritten to %q", p, res.Pattern)
		}
	}
}

func TestRewriteMultiNumberPath(t *testing.T) {
	p := "_1239_.*_70[2-3]_"
	res, err := RewriteASN(p, testPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Pattern, "2239") {
		t.Errorf("1239 not rewritten in %q", res.Pattern)
	}
	if !strings.Contains(res.Pattern, strconv.Itoa(int(testPerm(702)))) ||
		!strings.Contains(res.Pattern, strconv.Itoa(int(testPerm(703)))) {
		t.Errorf("range atom not rewritten in %q", res.Pattern)
	}
	if !strings.Contains(res.Pattern, ".*") {
		t.Errorf("path wildcard destroyed in %q", res.Pattern)
	}
	if res.Atoms != 3 { // 1239, .*, 70[2-3]
		t.Errorf("Atoms = %d, want 3 (%q)", res.Atoms, res.Pattern)
	}
	if res.Mapped != 2 {
		t.Errorf("Mapped = %d, want 2 (%q)", res.Mapped, res.Pattern)
	}
}

func TestRewriteCommunity(t *testing.T) {
	valPerm := func(v uint32) uint32 { return v ^ 0x2A5A } // any bijection of 16 bits
	p := "701:7[1-5].."
	res, err := RewriteCommunity(p, testPerm, valPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	orig := mustParse(t, p)
	rew := mustParse(t, res.Pattern)
	// Spot-check the bijection on the cross product.
	for _, a := range []uint32{700, 701, 702} {
		for _, v := range []uint32{7100, 7355, 7599, 7600} {
			tok := strconv.Itoa(int(a)) + ":" + strconv.Itoa(int(v))
			mtok := strconv.Itoa(int(testPerm(a))) + ":" + strconv.Itoa(int(valPerm(v)))
			if orig.MatchToken(tok) != rew.MatchToken(mtok) {
				t.Errorf("community bijection broken at %s -> %s (pattern %q)", tok, mtok, res.Pattern)
			}
		}
	}
}

func TestRewriteCommunityAlternatives(t *testing.T) {
	valPerm := func(v uint32) uint32 { return (v + 1) & 0xFFFF }
	p := "(701:100|702:200)"
	res, err := RewriteCommunity(p, testPerm, valPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	rew := mustParse(t, res.Pattern)
	if !rew.MatchToken("1701:101") || !rew.MatchToken("1702:201") {
		t.Errorf("alternative halves not rewritten: %q", res.Pattern)
	}
	if rew.MatchToken("701:100") {
		t.Errorf("original community still accepted: %q", res.Pattern)
	}
}

func TestRewriteCommunityUnsplittable(t *testing.T) {
	if _, err := RewriteCommunity(".*", testPerm, func(v uint32) uint32 { return v }, Alternation); err == nil {
		t.Error("expected ErrUnsplittable for pattern without colon")
	}
}

func TestRewriteParseError(t *testing.T) {
	if _, err := RewriteASN("70[1-", testPerm, Alternation); err == nil {
		t.Error("expected parse error")
	}
}

func TestRewriteQuickBijectionProperty(t *testing.T) {
	// Property: for random small ranges, the rewrite maps the language
	// exactly through the permutation.
	f := func(base uint16, width uint8) bool {
		lo := uint32(base) % 60000
		hi := lo + uint32(width)%10
		loS, hiS := strconv.Itoa(int(lo)), strconv.Itoa(int(lo+9))
		if len(loS) != len(hiS) {
			return true // range spans a digit-length boundary; skip
		}
		// Build a pattern like "70[1-5]" from the common prefix.
		prefix := loS[:len(loS)-1]
		d1 := loS[len(loS)-1]
		d2 := byte('0' + (hi % 10))
		if d2 < d1 {
			d1, d2 = d2, d1
		}
		p := prefix + "[" + string(d1) + "-" + string(d2) + "]"
		orig, err := Parse(p)
		if err != nil {
			return false
		}
		res, err := RewriteASN(p, testPerm, Alternation)
		if err != nil {
			return false
		}
		rew, err := Parse(res.Pattern)
		if err != nil {
			return false
		}
		for _, a := range orig.Language() {
			if !rew.MatchASN(testPerm(a)) {
				return false
			}
		}
		return len(rew.Language()) == len(orig.Language())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatchToken(b *testing.B) {
	re, _ := Parse("(_1239_|_70[2-5]_)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.MatchToken("703")
	}
}

func BenchmarkLanguageEnumeration(b *testing.B) {
	re, _ := Parse("70[1-5]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.Language()
	}
}

func BenchmarkRewriteAlternation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RewriteASN("70[1-5]", testPerm, Alternation); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRewriteMinimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RewriteASN("70[1-5]", testPerm, Minimal); err != nil {
			b.Fatal(err)
		}
	}
}

// languageCrossCheckPatterns seed the DFA/NFA language cross-checks.
var languageCrossCheckPatterns = []string{
	"70[1-3]", "_1239_", "(_1239_|_70[2-5]_)", ".*", "7..",
	"[^7]0*", "6451[12]", "^1?2?3?$", "(1|22|333)+", "",
}

// TestLanguageDFAMatchesNFA cross-checks the lazy-DFA enumeration against
// the direct NFA oracle.
func TestLanguageDFAMatchesNFA(t *testing.T) {
	for _, p := range languageCrossCheckPatterns {
		re := mustParse(t, p)
		fast := re.Language()
		slow := re.languageNFA()
		if !languagesEqual(fast, slow) {
			t.Errorf("DFA/NFA language mismatch for %q: %d vs %d values", p, len(fast), len(slow))
		}
	}
}

// TestRewriteJunOSSpaceSeparatedPath: JunOS as-path regexps separate AS
// numbers with spaces ("1239 .*"); the space literal is a safe separator
// and each number rewrites independently.
func TestRewriteJunOSSpaceSeparatedPath(t *testing.T) {
	res, err := RewriteASN("1239 .* 70[1-3]", testPerm, Alternation)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Pattern, "2239") {
		t.Errorf("literal not rewritten: %q", res.Pattern)
	}
	if !strings.Contains(res.Pattern, " .* ") {
		t.Errorf("wildcard atom or spacing destroyed: %q", res.Pattern)
	}
	for a := uint32(701); a <= 703; a++ {
		if !strings.Contains(res.Pattern, strconv.Itoa(int(testPerm(a)))) {
			t.Errorf("range member perm(%d) missing: %q", a, res.Pattern)
		}
	}
	if res.Atoms != 3 || res.Mapped != 2 {
		t.Errorf("atoms=%d mapped=%d, want 3/2", res.Atoms, res.Mapped)
	}
}

// TestDecomposabilityKnownCases pins the analysis on the cases that
// motivated it.
func TestDecomposabilityKnownCases(t *testing.T) {
	safe := []string{"_1239_", "70[1-3]", "(_1239_|_70[2-5]_)", "_1239_.*_70[2-5]_", "1239 .* 701", "645[2-3][0-9]"}
	for _, p := range safe {
		re := mustParse(t, p)
		rw := &rewriter{needsRewrite: func(l []uint32) bool { return len(l) > 0 }}
		if !rw.decomposable(re.Root, false, false) {
			t.Errorf("%q should be decomposable", p)
		}
	}
	// "32(.|(59?))92" is all-digit and forms ONE atom — decomposable and
	// handled whole. The unsafe cases mix digit-edged groups with
	// boundaries so a digit run is only a fragment of a number.
	unsafePatterns := []string{"32(._|(59?))92", "3*((5_))*92"}
	for _, p := range unsafePatterns {
		re := mustParse(t, p)
		rw := &rewriter{needsRewrite: func(l []uint32) bool { return len(l) > 0 }}
		if rw.decomposable(re.Root, false, false) {
			t.Errorf("%q should NOT be decomposable", p)
		}
	}
}

// TestMinimalRegexpDeterministic: state elimination breaks cost ties by
// state number and merges edges in state order, so one language always
// yields one pattern.
func TestMinimalRegexpDeterministic(t *testing.T) {
	every := func(step, below uint32) []uint32 {
		var lang []uint32
		for v := uint32(0); v < below; v += step {
			lang = append(lang, v)
		}
		return lang
	}
	for _, lang := range [][]uint32{
		every(13, 2000),
		every(7, 5000),
		{701, 702, 703, 1239, 3356, 7018, 65000, 65001, 65535},
		every(97, 65536),
	} {
		want := MinimalRegexp(lang)
		for i := 0; i < 50; i++ {
			if got := MinimalRegexp(lang); got != want {
				t.Fatalf("%d-value language: call %d gave %q, first call %q", len(lang), i, got, want)
			}
		}
	}
}
