package anonymizer

// Tests of the per-Program rule inventory: each compiled Program owns
// its taxonomy, so Programs cannot conflict with each other, a rule_id
// resolves only within its own Program, and the bound on rules is one
// Program's.

import (
	"fmt"
	"strings"
	"testing"

	"confanon/internal/metrics"
	"confanon/internal/rulepack"
)

func packOf(t *testing.T, name, rules string) *rulepack.Pack {
	t.Helper()
	return mustPack(t, fmt.Sprintf(`{"schema": "confanon.rulepack/v1", "name": %q, "version": "1", "rules": [%s]}`, name, rules))
}

// TestProgramsDefineTheSameRuleIndependently: two Programs whose packs
// define acme-secret with different class and doc both compile, at
// different positions in their rule sets, and each Session counts only
// its own hits, in its Stats and in a registry both are wired to.
func TestProgramsDefineTheSameRuleIndependently(t *testing.T) {
	a, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{packOf(t, "a",
		`{"id": "acme-secret", "class": "misc", "scope": "line", "keys": ["acme"], "action": "hash", "doc": "acme secret, pack a"}`)}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{packOf(t, "b",
		`{"id": "b-first", "class": "name", "scope": "line", "keys": ["bee"], "action": "hash", "doc": "b's own rule"},
		 {"id": "acme-secret", "class": "name", "scope": "line", "keys": ["acme"], "action": "hash-segments", "doc": "acme secret, pack b"}`)}})
	if err != nil {
		t.Fatalf("a second Program defining acme-secret differently: %v", err)
	}
	if got := a.Rules()[numBuiltinRules]; got.Class != ClassMisc || got.Doc != "acme secret, pack a" {
		t.Errorf("Program a's acme-secret = %+v", got)
	}
	if got := b.Rules()[numBuiltinRules+1]; got.ID != "acme-secret" || got.Class != ClassName || got.Doc != "acme secret, pack b" {
		t.Errorf("Program b's acme-secret = %+v", got)
	}

	reg := metrics.NewRegistry()
	sa, sb := a.NewSession(), b.NewSession()
	sa.SetMetrics(reg)
	sb.SetMetrics(reg)
	sa.Acquire().AnonymizeText("acme one\n")
	sb.Acquire().AnonymizeText("acme two\nacme three\n")
	if n := sa.Stats().Hits("acme-secret"); n != 1 {
		t.Errorf("session a counted %d acme-secret hits, want 1", n)
	}
	if st := sb.Stats(); st.Hits("acme-secret") != 2 || st.Hits("b-first") != 0 {
		t.Errorf("session b counted %v, want acme-secret 2 and no b-first", st.RuleHits())
	}
	c := reg.Counters()
	if got := c[`confanon_rule_hits_total{rule="acme-secret"}`]; got != 3 {
		t.Errorf("shared registry counts %v acme-secret hits, want 3 (1 + 2)", got)
	}
	if got, ok := c[`confanon_rule_hits_total{rule="b-first"}`]; ok {
		t.Errorf("shared registry counts %v b-first hits; no session fired it", got)
	}
}

// TestManyProgramsEachWithAFreshRule: a process can compile any number
// of Programs that each define their own rule.
func TestManyProgramsEachWithAFreshRule(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("fresh-%d", i)
		p, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{packOf(t, id,
			fmt.Sprintf(`{"id": %q, "class": "misc", "scope": "line", "keys": ["k"], "action": "hash", "doc": "x"}`, id))}})
		if err != nil {
			t.Fatalf("Program %d: %v", i, err)
		}
		if rules := p.Rules(); len(rules) != numBuiltinRules+1 || rules[numBuiltinRules].ID != RuleID(id) {
			t.Fatalf("Program %d has %d rules, last %v", i, len(rules), rules[len(rules)-1].ID)
		}
	}
}

// TestProgramRuleBound: one Program holds at most maxRules rules, its
// packs' split between them notwithstanding.
func TestProgramRuleBound(t *testing.T) {
	packs := func(n int) []*rulepack.Pack {
		var ps []*rulepack.Pack
		for p := 0; p*10 < n; p++ {
			var rules []string
			for i := p * 10; i < n && i < (p+1)*10; i++ {
				rules = append(rules, fmt.Sprintf(`{"id": "bound-%d", "class": "misc", "scope": "line", "keys": ["k"], "action": "hash", "doc": "x"}`, i))
			}
			ps = append(ps, packOf(t, fmt.Sprintf("bound-pack-%d", p), strings.Join(rules, ",")))
		}
		return ps
	}
	room := maxRules - numBuiltinRules
	p, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: packs(room)})
	if err != nil {
		t.Fatalf("%d pack rules fill the bound exactly: %v", room, err)
	}
	if len(p.Rules()) != maxRules {
		t.Errorf("Program has %d rules, want %d", len(p.Rules()), maxRules)
	}
	_, err = CompileChecked(Options{Salt: []byte("s"), RulePacks: packs(room + 1)})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d rules", maxRules)) {
		t.Errorf("%d pack rules: err = %v, want one naming the bound of %d", room+1, err, maxRules)
	}
}

// TestRuleIDResolvesWithinItsProgram: a rule_id names a built-in rule
// or one defined earlier in the same Program's packs, never a rule
// another Program defined.
func TestRuleIDResolvesWithinItsProgram(t *testing.T) {
	def := packOf(t, "def", `{"id": "scope-def", "class": "misc", "scope": "line", "keys": ["def"], "action": "hash", "doc": "x"}`)
	use := packOf(t, "use", `{"id": "scope-use", "rule_id": "scope-def", "class": "misc", "scope": "line", "keys": ["use"], "action": "hash", "doc": "x"}`)
	if _, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{def}}); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{use}}); err == nil {
		t.Error("a rule_id resolved against a rule another Program defined")
	}
	if err := CheckPack(use); err == nil {
		t.Error("CheckPack resolved a rule_id against a rule another Program defined")
	}
	if _, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{use, def}}); err == nil {
		t.Error("a rule_id resolved against a rule a later pack defines")
	}
	p, err := CompileChecked(Options{Salt: []byte("s"), RulePacks: []*rulepack.Pack{def, use}})
	if err != nil {
		t.Fatalf("a rule_id naming an earlier pack's rule: %v", err)
	}
	s := p.NewSession()
	s.Acquire().AnonymizeText("def x\nuse y\n")
	if st := s.Stats(); st.Hits("scope-def") != 2 || len(p.Rules()) != numBuiltinRules+1 {
		t.Errorf("hits %v over %d rules; want both lines counted at scope-def", st.RuleHits(), len(p.Rules()))
	}
}

// TestDispatchListsMergedAtCompile: every trigger word's dispatch list
// already holds the key-less entries, in sequence order, so dispatch
// walks one list.
func TestDispatchListsMergedAtCompile(t *testing.T) {
	if len(builtinRuleSet.unkeyed) == 0 {
		t.Fatal("the built-in set has no key-less entry to merge")
	}
	for key, list := range builtinRuleSet.keyed {
		unkeyed := 0
		for i, r := range list {
			if i > 0 && list[i-1].seq >= r.seq {
				t.Errorf("key %q: %s then %s, out of sequence", key, list[i-1].name, r.name)
			}
			if len(r.keys) == 0 {
				unkeyed++
			}
		}
		if unkeyed != len(builtinRuleSet.unkeyed) {
			t.Errorf("key %q holds %d of the %d key-less entries", key, unkeyed, len(builtinRuleSet.unkeyed))
		}
	}
}
