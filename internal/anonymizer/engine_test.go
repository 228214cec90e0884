package anonymizer

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"confanon/internal/trace"
)

// TestRegistryCoversInventory: every one of the paper's 28 rules is a
// described registry entry, and every dispatch-table entry carries an ID
// that the registry describes.
func TestRegistryCoversInventory(t *testing.T) {
	described := map[RuleID]RuleInfo{}
	for _, info := range Rules() {
		if info.Doc == "" || info.Class == "" || info.Scope == "" {
			t.Errorf("rule %s is not self-describing: %+v", info.ID, info)
		}
		if _, dup := described[info.ID]; dup {
			t.Errorf("rule %s described twice", info.ID)
		}
		described[info.ID] = info
	}
	for _, r := range builtinRuleSet.unkeyed {
		if _, ok := described[r.id]; !ok {
			t.Errorf("dispatch entry %s carries undescribed rule %s", r.name, r.id)
		}
	}
	for _, candidates := range builtinRuleSet.keyed {
		for _, r := range candidates {
			if _, ok := described[r.id]; !ok {
				t.Errorf("dispatch entry %s carries undescribed rule %s", r.name, r.id)
			}
		}
	}
}

// TestDispatchOrderPreserved: compiling the canonical pack preserves the
// engine's dispatch contract — the pack's line entries appear in exactly
// the order of the Go class groups (comment before misc, misc before
// name, name before JunOS, JunOS before ASN), and key-indexed candidate
// lists stay ordered by global sequence.
func TestDispatchOrderPreserved(t *testing.T) {
	byName := map[string]*lineRule{}
	for _, r := range builtinRuleSet.unkeyed {
		byName[r.name] = r
	}
	for _, candidates := range builtinRuleSet.keyed {
		for _, r := range candidates {
			byName[r.name] = r
		}
	}
	want := 0
	for _, group := range [][]*lineRule{commentLineRules, miscLineRules, nameLineRules, junosLineRules, asnLineRules} {
		for _, gr := range group {
			r, ok := byName[gr.name]
			if !ok {
				t.Fatalf("builtin entry %s missing from compiled rule set", gr.name)
			}
			if r.seq != want {
				t.Fatalf("entry %s has seq %d, want %d", r.name, r.seq, want)
			}
			if r.id != gr.id {
				t.Fatalf("entry %s compiled with rule %s, group declares %s", r.name, r.id, gr.id)
			}
			want++
		}
	}
	if want != len(byName) {
		t.Fatalf("compiled set has %d line entries, class groups have %d", len(byName), want)
	}
	for key, candidates := range builtinRuleSet.keyed {
		for i := 1; i < len(candidates); i++ {
			if candidates[i-1].seq >= candidates[i].seq {
				t.Errorf("key %q candidates out of order: %s then %s",
					key, candidates[i-1].name, candidates[i].name)
			}
		}
	}
}

// TestDegenerateLinesDoNotPanic: the monolithic dispatcher indexed
// words[1] before checking the length on "ip" lines and crashed on a
// bare "ip"; the registry entries guard length first.
func TestDegenerateLinesDoNotPanic(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	for _, line := range []string{
		"ip", "neighbor", "set", "bgp", "router", "banner", "as-path",
		"community", "import", "export", "dialer", "username", "match",
		"class-map", "aaa", "snmp-server", "redistribute", "service-policy",
		"hostname", "ip vrf", "set community", "bgp confederation",
	} {
		out := a.AnonymizeText(line + "\n")
		if out == "" {
			t.Errorf("line %q produced empty output", line)
		}
	}
}

// TestPerRuleInstrumentation: hits and wall time both accumulate per
// rule, time goes only to rules that fired, and it adds up to the
// rewrite stage's time.
func TestPerRuleInstrumentation(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	a.AnonymizeText("router bgp 1111\n neighbor 12.0.0.1 remote-as 701\n")
	s := a.Stats()
	for _, r := range []RuleID{RuleBGPProcess, RuleNeighborRemoteAS, RuleBareAddr} {
		if s.Hits(r) == 0 {
			t.Errorf("rule %s did not hit: %+v", r, s.RuleHits())
		}
		if s.Time(r) <= 0 {
			t.Errorf("rule %s has no wall time: %v", r, s.RuleTime())
		}
	}
	if s.Hits(RuleDialerString) != 0 || s.Time(RuleDialerString) != 0 {
		t.Errorf("rule that never fired was instrumented: hits=%d time=%v",
			s.Hits(RuleDialerString), s.Time(RuleDialerString))
	}

	// The engine reads the clock once per call: a committed file's
	// per-rule times sum to its rewrite stage's duration to within one
	// nanosecond per hit, rules that never fired get no time, and the
	// hits of a file that failed mid-rewrite reach no later file's
	// attribution.
	tr := trace.NewTracer()
	a = Compile(Options{Salt: []byte("s"), Tracer: tr}).NewSession().Acquire()
	SetFaultHook(func(name string, line int) {
		if name == "bad" && line == 3 {
			panic("injected")
		}
	})
	defer SetFaultHook(nil)
	files := []struct{ name, text string }{
		{"r1", "hostname r1\nrouter bgp 1111\n neighbor 12.0.0.1 remote-as 701\n"},
		// Fails on line 3, after lines 1 and 2 fired the dialer and
		// community rules, which no other file fires.
		{"bad", "dialer string 5551234\nset community 701:120\nhostname bad\n"},
		{"r3", "hostname r3\n interface Ethernet0\n  ip address 12.0.0.2 255.255.255.0\n"},
	}
	for _, f := range files {
		_, ferr := a.SafeAnonymizeText(f.name, f.text)
		if (ferr != nil) != (f.name == "bad") {
			t.Fatalf("file %s: unexpected outcome %v", f.name, ferr)
		}
	}

	if n := checkRuleTimeSums(t, tr); n != 2 {
		t.Fatalf("checked %d committed rewrite stages, want 2", n)
	}

	s = a.Stats()
	for id, d := range s.RuleTime() {
		if s.Hits(id) == 0 {
			t.Errorf("rule %s never fired in a committed file but has %v", id, d)
		}
	}
	for _, id := range []RuleID{RuleDialerString, RuleSetCommunity} {
		if s.Hits(id) != 0 || s.Time(id) != 0 {
			t.Errorf("failed file's rule %s reached the Session: hits=%d time=%v", id, s.Hits(id), s.Time(id))
		}
	}
}

// checkRuleTimeSums checks every committed file's rewrite stage span
// against the rule spans under it: their durations sum to the stage's
// to within one nanosecond per hit. It returns the stages checked.
func checkRuleTimeSums(t *testing.T, tr *trace.Tracer) int {
	t.Helper()
	spans := tr.Spans()
	checked := 0
	for _, file := range spans {
		if file.Kind != trace.KindFile || file.Status != trace.StatusOK {
			continue
		}
		for _, stage := range spans {
			if stage.Parent != file.ID || stage.Kind != trace.KindStage || stage.Name != stageRewrite {
				continue
			}
			var sum, hits int64
			for _, r := range spans {
				if r.Parent == stage.ID && r.Kind == trace.KindRule {
					n, _ := strconv.ParseInt(r.Attr("hits"), 10, 64)
					sum, hits = sum+r.DurNs, hits+n
				}
			}
			if hits == 0 || sum > stage.DurNs || stage.DurNs-sum > hits {
				t.Errorf("file %s: rule times sum to %d ns over %d hits, rewrite stage took %d ns",
					file.Name, sum, hits, stage.DurNs)
			}
			checked++
		}
	}
	return checked
}

// TestNamePositionInstrumented: the extension name rules are now counted.
func TestNamePositionInstrumented(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	a.AnonymizeText("route-map FOO permit 10\n")
	if a.Stats().Hits(RuleNamePosition) != 1 {
		t.Errorf("name position not counted: %+v", a.Stats().RuleHits())
	}
}

// TestStatsAdd: every counter merges; per-rule counters merge slot-wise.
func TestStatsAdd(t *testing.T) {
	a := Stats{Files: 1, Lines: 10, TokensHashed: 3}
	a.AddRuleHit(RuleBanner, 2)
	a.AddRuleTime(RuleBanner, time.Millisecond)
	b := Stats{Files: 2, Lines: 5, TokensHashed: 4}
	b.AddRuleHit(RuleBanner, 1)
	b.AddRuleHit(RuleHostname, 7)
	b.AddRuleTime(RuleHostname, time.Second)
	a.Add(b)
	if a.Files != 3 || a.Lines != 15 || a.TokensHashed != 7 {
		t.Errorf("counters wrong after Add: %+v", a)
	}
	if a.Hits(RuleBanner) != 3 || a.Hits(RuleHostname) != 7 {
		t.Errorf("RuleHits wrong after Add: %+v", a.RuleHits())
	}
	if a.Time(RuleBanner) != time.Millisecond || a.Time(RuleHostname) != time.Second {
		t.Errorf("RuleTime wrong after Add: %+v", a.RuleTime())
	}
}

// TestStatsAddIntoZero: Add into a zero-valued Stats just works (the
// dense representation has no maps to allocate).
func TestStatsAddIntoZero(t *testing.T) {
	var total Stats
	var one Stats
	one.Files = 1
	one.AddRuleHit(RuleBanner, 1)
	total.Add(one)
	if total.Files != 1 || total.Hits(RuleBanner) != 1 {
		t.Errorf("zero-value Add wrong: %+v", total)
	}
}

// TestStatsAddMatchesAnonymization: merging two runs' stats equals one
// run over both inputs (for the counters that are run-order independent).
func TestStatsAddMatchesAnonymization(t *testing.T) {
	text1 := "hostname r1.foo.com\nrouter bgp 1111\n neighbor 12.0.0.1 remote-as 701\n"
	text2 := "banner motd ^C\nsecret stuff\n^C\naccess-list 10 permit 12.0.0.0 0.0.0.255\n"

	one := New(Options{Salt: []byte("s")})
	one.AnonymizeText(text1)
	one.AnonymizeText(text2)
	want := one.Stats()

	x := New(Options{Salt: []byte("s")})
	x.AnonymizeText(text1)
	y := New(Options{Salt: []byte("s")})
	y.AnonymizeText(text2)
	var got Stats
	got.Add(x.Stats())
	got.Add(y.Stats())

	if got.Files != want.Files || got.Lines != want.Lines ||
		got.WordsTotal != want.WordsTotal || got.TokensHashed != want.TokensHashed ||
		got.IPsMapped != want.IPsMapped || got.ASNsMapped != want.ASNsMapped {
		t.Errorf("merged stats differ from combined run:\n got %+v\nwant %+v", got, want)
	}
	for r, n := range want.RuleHits() {
		if got.Hits(r) != n {
			t.Errorf("rule %s hits: got %d want %d", r, got.Hits(r), n)
		}
	}
}

// TestJunosMessageQuirkPreserved documents the seed behavior the golden
// corpus pins: in stripping mode a JunOS "message" line is counted as a
// removed comment line but then falls through to the generic pass and is
// hashed in place, not dropped.
func TestJunosMessageQuirkPreserved(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	out := a.AnonymizeText("    message \"FooNet property keep out\";\n")
	if !strings.Contains(out, "message ") {
		t.Fatalf("message line was dropped: %q", out)
	}
	if strings.Contains(out, "FooNet") {
		t.Errorf("identity survived in message line: %q", out)
	}
	if a.Stats().CommentLinesRemoved != 1 {
		t.Errorf("message line not counted as comment: %+v", a.Stats())
	}
	if a.Stats().Hits(RuleBanner) != 1 {
		t.Errorf("banner rule not hit: %+v", a.Stats().RuleHits())
	}
}

// TestRewriteTrailingNewline: a file's output is its kept lines, each
// ending in a newline; a file with no kept line is a single newline.
func TestRewriteTrailingNewline(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	for in, want := range map[string]string{
		"":                                 "\n",
		"! a free-text comment\n":          "\n",
		"!\n":                              "!\n",
		"interface Loopback0\n!\n":         "interface Loopback0\n!\n",
		"!\n! dropped comment\nend":        "!\nend\n",
		"! dropped\n! also dropped\n!\n\n": "!\n\n",
	} {
		if got := a.AnonymizeText(in); got != want {
			t.Errorf("AnonymizeText(%q) = %q, want %q", in, got, want)
		}
	}
}
