package anonymizer

import (
	_ "embed"
	"fmt"
	"slices"

	"confanon/internal/rulepack"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// The pack compiler: the one path every rule — built-in or user-supplied
// — takes into a Program's dispatch tables. The built-in inventory is
// itself expressed as an embedded canonical pack (builtin_pack.json):
// the pack document owns each entry's identity, trigger keys, taxonomy
// binding, and order, while the Go code owns only the apply functions,
// looked up by entry name. Loading a user pack therefore exercises
// exactly the machinery the built-ins are built with — there is no
// second, less-tested code path for "external" rules.

//go:embed builtin_pack.json
var builtinPackJSON []byte

// builtinPack is the parsed canonical inventory. Parsed once at init;
// a malformed embedded pack is a build defect, hence the panic.
var builtinPack = func() *rulepack.Pack {
	p, err := rulepack.Parse(builtinPackJSON)
	if err != nil {
		panic("anonymizer: embedded builtin pack invalid: " + err.Error())
	}
	return p
}()

// BuiltinPack returns the canonical built-in inventory as a pack
// (callers must treat it as read-only).
func BuiltinPack() *rulepack.Pack { return builtinPack }

// builtinEntry is the engine half of one built-in line rule: the apply
// function and the taxonomy rule it hits. The trigger keys live in the
// pack document, not here.
type builtinEntry struct {
	id    RuleID
	apply applyFn
}

// builtinEntries indexes the line-scoped apply functions by entry name.
// Assembled lazily from the per-class group slices (rules_comment.go,
// names.go, junos.go, rules_asn.go) the first time a rule set compiles.
var builtinEntries = func() map[string]*builtinEntry {
	m := make(map[string]*builtinEntry)
	for _, group := range [][]*lineRule{
		commentLineRules, miscLineRules, nameLineRules, junosLineRules, asnLineRules,
	} {
		for _, r := range group {
			if r.name == "" || r.apply == nil {
				panic("anonymizer: malformed builtin entry " + r.name)
			}
			if _, dup := m[r.name]; dup {
				panic("anonymizer: duplicate builtin entry " + r.name)
			}
			m[r.name] = &builtinEntry{id: r.id, apply: r.apply}
		}
	}
	return m
}()

// builtinStages names the engine-stage built-ins: rules whose
// implementation is wired into the engine pipeline itself (structural
// cross-line state, the generic token pass, the leak scan) rather than
// dispatched from a table. They appear in the canonical pack so the
// document describes the complete inventory, but compiling them
// produces no dispatch entries — and user packs cannot reference them,
// because a stage cannot be instantiated twice.
var builtinStages = map[string]RuleID{
	"banner-body":    RuleBanner,
	"junos-comments": RuleCommentLine,
	"segment-alpha":  RuleSegmentAlpha,
	"segment-words":  RuleSegmentWords,
	"addr-netmask":   RuleAddrNetmask,
	"addr-wildcard":  RuleAddrWildcard,
	"bare-addr":      RuleBareAddr,
	"slash-prefix":   RuleSlashPrefix,
	"classful-net":   RuleClassfulNet,
	"bare-community": RuleBareCommunity,
	"leak-highlight": RuleLeakHighlight,
}

// tokenRule is one compiled declarative token rule: it fires inside the
// generic word pass, on cores that are not IP/prefix/community shaped.
type tokenRule struct {
	id     RuleID
	m      *rulepack.Match
	action string
}

// reportRule is one compiled declarative report rule: it fires inside
// LeakReport and can only add findings (strengthening strict gating).
type reportRule struct {
	id   RuleID
	pack string
	m    *rulepack.Match
}

// ruleSet is a Program's compiled rule inventory: its taxonomy (the
// built-in entries at the same indices in every set, then the rules its
// packs define, in load order), the line dispatch tables, the
// declarative token and report rules, and the identity of every pack
// that contributed. The taxonomy index is what the engine's hit
// counters and the Program's Stats are indexed by.
type ruleSet struct {
	infos []RuleInfo
	index map[RuleID]int
	// keyed holds, for each trigger word, the entries keyed on it merged
	// with the key-less entries in dispatch order; unkeyed serves every
	// other first word.
	keyed   map[string][]*lineRule
	unkeyed []*lineRule
	token   []*tokenRule
	report  []*reportRule
	packs   []rulepack.Meta
}

// compileRuleSet merges the built-in pack with the user packs into one
// dispatch inventory. User-pack line rules are ordered ahead of the
// built-ins (pack load order among themselves), so a pack rule always
// observes the original tokenized line; because declarative line rules
// rewrite in place and decline — or drop the line outright — instead of
// consuming it, the built-in dispatch and the generic pass still run
// afterwards, which is what keeps a loaded pack unable to weaken the
// built-in coverage. A rule ID appearing in two merged packs is a
// conflict, not an override.
func compileRuleSet(userPacks []*rulepack.Pack) (*ruleSet, error) {
	rs := &ruleSet{
		infos: slices.Clip(ruleInfos[:]),
		index: make(map[RuleID]int, numBuiltinRules),
		keyed: make(map[string][]*lineRule),
	}
	for i, info := range ruleInfos {
		if _, dup := rs.index[info.ID]; dup {
			return nil, fmt.Errorf("anonymizer: duplicate built-in rule id %q", info.ID)
		}
		rs.index[info.ID] = i
	}
	ids := make(map[string]string) // rule id → pack name
	var line []*lineRule

	packs := make([]*rulepack.Pack, 0, len(userPacks)+1)
	packs = append(packs, userPacks...)
	packs = append(packs, builtinPack)

	builtinSeen := make(map[string]bool)
	for _, p := range packs {
		isBuiltin := p == builtinPack
		for i := range p.Rules {
			r := &p.Rules[i]
			if prev, dup := ids[r.ID]; dup {
				return nil, fmt.Errorf("anonymizer: rule %q defined by both pack %s and pack %s", r.ID, prev, p.Name)
			}
			ids[r.ID] = p.Name

			if r.Builtin != "" {
				if stage, ok := builtinStages[r.Builtin]; ok {
					if !isBuiltin {
						return nil, fmt.Errorf("anonymizer: pack %s rule %q: builtin %q is an engine stage and cannot be referenced by a user pack", p.Name, r.ID, r.Builtin)
					}
					if builtinSeen[r.Builtin] {
						return nil, fmt.Errorf("anonymizer: builtin pack references stage %q twice", r.Builtin)
					}
					builtinSeen[r.Builtin] = true
					if r.RuleID != string(stage) {
						return nil, fmt.Errorf("anonymizer: builtin pack stage %q binds rule_id %q, engine expects %q", r.Builtin, r.RuleID, stage)
					}
					continue
				}
				e, ok := builtinEntries[r.Builtin]
				if !ok {
					return nil, fmt.Errorf("anonymizer: pack %s rule %q references unknown builtin %q", p.Name, r.ID, r.Builtin)
				}
				if isBuiltin {
					if builtinSeen[r.Builtin] {
						return nil, fmt.Errorf("anonymizer: builtin pack references entry %q twice", r.Builtin)
					}
					builtinSeen[r.Builtin] = true
					if r.RuleID != string(e.id) {
						return nil, fmt.Errorf("anonymizer: builtin pack entry %q binds rule_id %q, engine expects %q", r.Builtin, r.RuleID, e.id)
					}
				}
				if r.Scope != rulepack.ScopeLine {
					return nil, fmt.Errorf("anonymizer: pack %s rule %q: builtin %q is line-scoped, rule declares scope %q", p.Name, r.ID, r.Builtin, r.Scope)
				}
				line = append(line, &lineRule{id: e.id, name: r.ID, keys: r.Keys, apply: e.apply})
				continue
			}

			// Declarative rule: resolve its taxonomy identity, then compile
			// the scope-specific artifact.
			id, err := rs.resolveRuleID(r)
			if err != nil {
				return nil, fmt.Errorf("anonymizer: pack %s rule %q: %v", p.Name, r.ID, err)
			}
			switch r.Scope {
			case rulepack.ScopeLine:
				line = append(line, compileLineRule(r, id))
			case rulepack.ScopeToken:
				rs.token = append(rs.token, &tokenRule{id: id, m: r.Match, action: r.Action})
			case rulepack.ScopeReport:
				rs.report = append(rs.report, &reportRule{id: id, pack: p.Name, m: r.Match})
			default:
				return nil, fmt.Errorf("anonymizer: pack %s rule %q: scope %q has no declarative form", p.Name, r.ID, r.Scope)
			}
		}
		rs.packs = append(rs.packs, p.Meta())
	}

	// Pack/code drift guard: the canonical pack must reference every
	// engine entry and stage exactly once — an apply function with no
	// pack entry would be unreachable, silently.
	for name := range builtinEntries {
		if !builtinSeen[name] {
			return nil, fmt.Errorf("anonymizer: builtin pack is missing entry %q", name)
		}
	}
	for name := range builtinStages {
		if !builtinSeen[name] {
			return nil, fmt.Errorf("anonymizer: builtin pack is missing stage %q", name)
		}
	}

	// Every trigger word's list holds its keyed entries merged with the
	// key-less ones in sequence order, so dispatch is one loop.
	for _, r := range line {
		for _, k := range r.keys {
			rs.keyed[k] = nil
		}
	}
	for i, r := range line {
		r.seq = i
		if len(r.keys) == 0 {
			rs.unkeyed = append(rs.unkeyed, r)
			for k := range rs.keyed {
				rs.keyed[k] = append(rs.keyed[k], r)
			}
			continue
		}
		for _, k := range r.keys {
			rs.keyed[k] = append(rs.keyed[k], r)
		}
	}
	return rs, nil
}

// resolveRuleID maps a declarative pack rule onto the set's taxonomy. A
// rule_id must name a built-in rule or one an earlier pack rule of this
// set defined, and the rule counts there. A rule without one defines
// its own entry, which must not contradict a built-in entry of the same
// ID and must fit within maxRules.
func (rs *ruleSet) resolveRuleID(r *rulepack.Rule) (RuleID, error) {
	if r.RuleID != "" {
		id := RuleID(r.RuleID)
		if _, ok := rs.index[id]; !ok {
			return "", fmt.Errorf("rule_id %q names neither a built-in rule nor one defined earlier in this Program's packs", r.RuleID)
		}
		return id, nil
	}
	info := RuleInfo{ID: RuleID(r.ID), Class: Class(r.Class), Scope: Scope(r.Scope), Doc: r.Doc}
	if i, ok := rs.index[info.ID]; ok {
		if rs.infos[i] != info {
			return "", fmt.Errorf("rule %q contradicts the built-in rule of that id", info.ID)
		}
		return info.ID, nil
	}
	if len(rs.infos) >= maxRules {
		return "", fmt.Errorf("a Program holds at most %d rules (%d built-in); %q is one too many", maxRules, numBuiltinRules, info.ID)
	}
	rs.index[info.ID] = len(rs.infos)
	rs.infos = append(rs.infos, info)
	return info.ID, nil
}

// compileLineRule builds the dispatch entry for one declarative line
// rule. The entry locates its target words — everything after a match
// word, every pattern-matching word, or every word after the key — and
// rewrites their punctuation-stripped cores in place with the declared
// action, then DECLINES the line (drop-line excepted), so the built-in
// dispatch and the generic pass still see it. Rewritten values are
// shielded from further rewriting for the rest of the line; IP- and
// prefix-shaped cores are left for the structure-preserving IP rules.
func compileLineRule(r *rulepack.Rule, id RuleID) *lineRule {
	action := r.Action
	m := r.Match
	return &lineRule{id: id, name: r.ID, keys: r.Keys,
		apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
			start := 1
			if m != nil && m.Word != "" {
				start = -1
				for i := 1; i < len(c.words); i++ {
					if jwCore(c.words, i) == m.Word {
						start = i + 1
						break
					}
				}
				if start < 0 {
					return "", false, false
				}
			}
			var targets []int
			for i := start; i < len(c.words); i++ {
				cv := jwCore(c.words, i)
				if cv == "" {
					continue
				}
				if m != nil && m.Pattern != "" && !m.MatchToken(cv) {
					continue
				}
				if action != "drop-line" {
					if _, ok := token.ParseIPv4(cv); ok {
						continue
					}
					if _, _, ok := token.ParseIPv4Prefix(cv); ok {
						continue
					}
				}
				targets = append(targets, i)
			}
			if len(targets) == 0 {
				// Keyed rule with no pattern and nothing after the key, or
				// no word matched the pattern: decline untouched.
				if action == "drop-line" && (m == nil || m.Pattern == "") {
					a.hit(id)
					return "", false, true
				}
				return "", false, false
			}
			a.hit(id)
			if action == "drop-line" {
				return "", false, true
			}
			for _, i := range targets {
				out := a.applyPackAction(action, jwCore(c.words, i))
				jwSetCore(c.words, i, out)
				a.shield(out)
			}
			return "", false, false
		}}
}

// applyPackAction rewrites one core with a declarative action. Every
// action anonymizes: the originals are recorded in the leak recorder
// (via forceHash / hashAllSegments / mapMACToken), so a value a pack
// rewrote here is still flagged if it survives elsewhere.
func (a *Anonymizer) applyPackAction(action, cv string) string {
	switch action {
	case "hash":
		return a.forceHash(cv)
	case "hash-segments":
		return a.hashAllSegments(cv)
	case "digits":
		return a.hashPackDigits(cv)
	case "mac":
		return a.mapMACToken(cv)
	}
	// rulepack validation admits no other action.
	return a.forceHash(cv)
}

// hashPackDigits maps a digit-bearing token to another of the same
// shape (the dialer-string treatment, exposed to packs).
func (a *Anonymizer) hashPackDigits(cv string) string {
	a.stats.TokensHashed++
	a.seenWords[cv] = true
	out := hashDigits(a.opts.Salt, cv)
	if a.tracer != nil {
		a.decide(trace.ClassHashed, out)
	}
	return out
}

// shield marks a value produced by a pack line rule as finished for the
// current line: the generic pass passes it through instead of hashing
// the replacement again (which would, for a MAC, destroy the shape the
// action just preserved). The shield is per-line and by value; it is
// only ever populated when a pack rule fired, so the unloaded-pack hot
// path never allocates it.
func (a *Anonymizer) shield(v string) {
	if a.lineShield == nil {
		a.lineShield = make(map[string]bool, 4)
	}
	a.lineShield[v] = true
}

// applyTokenRules runs the declarative token rules over one core inside
// the generic pass; the first matching rule rewrites it.
func (a *Anonymizer) applyTokenRules(w string) (string, bool) {
	for _, tr := range a.rules.token {
		if !tr.m.MatchToken(w) {
			continue
		}
		a.hit(tr.id)
		return a.applyPackAction(tr.action, w), true
	}
	return "", false
}

// mapMACToken maps a MAC address consistently under the salt, keeping
// its separator pattern (aa:bb:..., aa-bb-..., aabb.ccdd.eeff) and the
// I/G and U/L bits of the first octet, so multicast/locally-administered
// semantics survive anonymization. Non-hex-shaped tokens fall back to
// the plain hash. The original is recorded for the leak report.
func (a *Anonymizer) mapMACToken(w string) string {
	var hexDigits []byte
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
			hexDigits = append(hexDigits, c)
		case c >= 'A' && c <= 'F':
			hexDigits = append(hexDigits, c+('a'-'A'))
		case c == ':' || c == '-' || c == '.':
		default:
			return a.forceHash(w)
		}
	}
	if len(hexDigits) != 12 {
		return a.forceHash(w)
	}
	mapped := hashDigitsHex(a.opts.Salt, string(hexDigits))
	// Preserve the I/G (multicast) and U/L (locally administered) bits:
	// the low two bits of the first octet, i.e. of the second hex digit.
	origLow := hexVal(hexDigits[1])
	mapLow := hexVal(mapped[1])
	mapped[1] = hexDigit((mapLow &^ 0x03) | (origLow & 0x03))

	a.stats.TokensHashed++
	a.seenWords[w] = true
	out := make([]byte, 0, len(w))
	di := 0
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c == ':' || c == '-' || c == '.' {
			out = append(out, c)
			continue
		}
		out = append(out, mapped[di])
		di++
	}
	res := string(out)
	if a.tracer != nil {
		a.decide(trace.ClassHashed, res)
	}
	return res
}

func hexVal(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

func hexDigit(v byte) byte {
	if v >= 10 {
		return 'a' + v - 10
	}
	return '0' + v
}

// CheckPack verifies that a parsed pack would compile against this
// engine build — builtin references resolve, taxonomy entries fit and
// agree with the built-in inventory, rule IDs do not collide with it —
// by compiling it alone and discarding the result. This is the
// validation confvalidate -check-pack and the portal's pack
// registration run.
func CheckPack(p *rulepack.Pack) error {
	_, err := compileRuleSet([]*rulepack.Pack{p})
	return err
}
