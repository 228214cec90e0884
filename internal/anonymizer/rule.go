package anonymizer

// The rule inventory. Every context rule is a named, self-describing
// entry: RuleInfo carries the identity and taxonomy of one RuleID, and
// lineRule carries the dispatchable implementation of one line-scoped
// rule. The engine (engine.go) owns line iteration and consults the
// ordered dispatch table each Program compiles (pack.go); token-scoped
// rules fire inside the engine's generic word pass, and report-scoped
// rules fire in LeakReport.

import "slices"

// Class groups rules by the paper's §4.2 taxonomy.
type Class string

// Rule classes.
const (
	ClassSegmentation Class = "segmentation"
	ClassComment      Class = "comment"
	ClassMisc         Class = "misc"
	ClassName         Class = "name"
	ClassASN          Class = "asn"
	ClassIP           Class = "ip"
	ClassCommunity    Class = "community"
	ClassLeak         Class = "leak"
)

// Scope says where in the pipeline a rule runs.
type Scope string

// Rule scopes.
const (
	// ScopeLine rules consume whole lines via the keyed dispatch table.
	ScopeLine Scope = "line"
	// ScopeStructural rules manage cross-line state (banner bodies,
	// JunOS block comments) and run before tokenized dispatch.
	ScopeStructural Scope = "structural"
	// ScopeToken rules fire per word inside the generic pass.
	ScopeToken Scope = "token"
	// ScopeReport rules fire during the post-anonymization leak scan.
	ScopeReport Scope = "report"
)

// RuleInfo is the self-describing inventory entry for one RuleID.
type RuleInfo struct {
	ID    RuleID
	Class Class
	Scope Scope
	Doc   string
}

// ruleInfos describes the full inventory — the paper's 28 rules first,
// then the extension rules this reproduction adds (name positions,
// §4.1). An array, so its length is the constant numBuiltinRules.
var ruleInfos = [...]RuleInfo{
	{RuleSegmentAlpha, ClassSegmentation, ScopeToken, "split words into alphabetic / non-alphabetic runs before the pass-list"},
	{RuleSegmentWords, ClassSegmentation, ScopeToken, "split compound identifiers joined by dots and dashes"},
	{RuleBanner, ClassComment, ScopeStructural, "strip banner bodies between the delimiter lines"},
	{RuleDescription, ClassComment, ScopeLine, "strip description / remark free text"},
	{RuleCommentLine, ClassComment, ScopeLine, "strip ! and # comment lines and /* */ blocks"},
	{RuleDialerString, ClassMisc, ScopeLine, "phone numbers after \"dialer string\""},
	{RuleSNMPCommunity, ClassMisc, ScopeLine, "snmp-server community credential"},
	{RuleHostname, ClassMisc, ScopeLine, "hostname and domain-name segments"},
	{RuleCredentials, ClassMisc, ScopeLine, "usernames, passwords, secrets, keys"},
	{RuleBGPProcess, ClassASN, ScopeLine, "router bgp ASN / JunOS autonomous-system"},
	{RuleRedistributeBGP, ClassASN, ScopeLine, "redistribute bgp ASN"},
	{RuleNeighborRemoteAS, ClassASN, ScopeLine, "neighbor remote-as / JunOS peer-as"},
	{RuleNeighborLocalAS, ClassASN, ScopeLine, "neighbor local-as"},
	{RuleConfedID, ClassASN, ScopeLine, "bgp confederation identifier"},
	{RuleConfedPeers, ClassASN, ScopeLine, "bgp confederation peers list"},
	{RuleSetCommunity, ClassASN, ScopeLine, "set community values"},
	{RuleSetExtCommunity, ClassASN, ScopeLine, "set extcommunity values"},
	{RuleCommListLiteral, ClassASN, ScopeLine, "community-list literal entries"},
	{RuleCommListRegexp, ClassASN, ScopeLine, "community-list regexp entries (language rewrite)"},
	{RuleASPathPrepend, ClassASN, ScopeLine, "set as-path prepend ASNs"},
	{RuleASPathRegexp, ClassASN, ScopeLine, "as-path access-list regexps (language rewrite)"},
	{RuleAddrNetmask, ClassIP, ScopeToken, "address + netmask pair (prefix-length context)"},
	{RuleAddrWildcard, ClassIP, ScopeToken, "address + wildcard-mask pair"},
	{RuleBareAddr, ClassIP, ScopeToken, "bare dotted-quad address"},
	{RuleSlashPrefix, ClassIP, ScopeToken, "a.b.c.d/len prefix"},
	{RuleClassfulNet, ClassIP, ScopeToken, "classful network statements under RIP/EIGRP/IGRP"},
	{RuleBareCommunity, ClassCommunity, ScopeToken, "bare asn:value community token"},
	{RuleLeakHighlight, ClassLeak, ScopeReport, "highlight recorded sensitive values surviving in output"},
	{RuleNamePosition, ClassName, ScopeLine, "user-chosen identifiers at known grammar positions (extension)"},
}

// numBuiltinRules counts the built-in taxonomy entries (ruleInfos). They
// hold the same indices in every Program's rule set.
const numBuiltinRules = len(ruleInfos)

// maxRules bounds one Program's taxonomy: the built-in entries plus the
// rules its packs define. It sizes the dense per-rule counter arrays in
// Stats (a constant, so a Stats value is the same type whatever packs
// are loaded); compileRuleSet rejects a pack set that exceeds it.
const maxRules = 96

// Rules returns the built-in rule inventory in canonical order: the
// paper's 28 rules first, then the extension rules. Program.Rules adds a
// Program's pack-defined rules.
func Rules() []RuleInfo { return slices.Clone(ruleInfos[:]) }

// lineCtx carries one tokenized line through the dispatch table.
type lineCtx struct {
	raw   string
	words []string
	gaps  []string
	st    *fileState
}

// applyFn rewrites one line. out and keep are meaningful only when
// consumed is true; keep=false drops the line from the output.
// consumed=false means the rule declined the line — possibly after
// recording stats (see the JunOS message rule, which preserves the
// seed behavior of falling through to the generic pass) — and dispatch
// continues with the next rule in dispatch order.
type applyFn func(a *Anonymizer, c *lineCtx) (out string, keep, consumed bool)

// lineRule is one dispatchable entry of the line-scoped rule pipeline.
type lineRule struct {
	id    RuleID   // primary rule this entry implements
	name  string   // entry name, unique within the dispatch table
	keys  []string // words[0] literals that can trigger it; empty = any
	apply applyFn
	seq   int // position in dispatch order, assigned at assembly
}

func init() {
	// Compile the canonical pack once at init: a builtin inventory that
	// does not round-trip through the pack path is a build defect, and
	// every Program compiled with no user packs shares this rule set.
	rs, err := compileRuleSet(nil)
	if err != nil {
		panic("anonymizer: builtin pack does not compile: " + err.Error())
	}
	builtinRuleSet = rs
}

// builtinRuleSet is the dispatch inventory compiled from the canonical
// pack alone — shared by every Program with no user packs loaded.
var builtinRuleSet *ruleSet

// dispatchLine runs the line through the Program's rule pipeline: the
// entries keyed on words[0], already merged with the key-less entries in
// sequence order at compile time, or the key-less entries alone. The
// first rule that consumes the line wins.
func (a *Anonymizer) dispatchLine(c *lineCtx) (string, bool, bool) {
	rules, ok := a.rules.keyed[c.words[0]]
	if !ok {
		rules = a.rules.unkeyed
	}
	for _, r := range rules {
		if out, keep, consumed := r.apply(a, c); consumed {
			return out, keep, true
		}
	}
	return "", false, false
}
