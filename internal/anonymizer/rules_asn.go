package anonymizer

import (
	"strconv"
	"strings"

	"confanon/internal/asn"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// ASN-location entries (A1–A12) and the ASN/community token mappers they
// share with the generic pass.

var asnLineRules = []*lineRule{
	// A1: router bgp ASN.
	{id: RuleBGPProcess, name: "router-bgp", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 3 || c.words[1] != "bgp" {
			return "", false, false
		}
		a.hit(RuleBGPProcess)
		c.words[2] = a.mapASNToken(c.words[2])
		return token.Join(c.words, c.gaps), true, true
	}},

	// A2: redistribute bgp ASN [route-map NAME ...].
	{id: RuleRedistributeBGP, name: "redistribute-bgp", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 3 || c.words[1] != "bgp" {
			return "", false, false
		}
		a.hit(RuleRedistributeBGP)
		c.words[2] = a.mapASNToken(c.words[2])
		a.genericWords(c.words[3:], c.st)
		return token.Join(c.words, c.gaps), true, true
	}},

	// A3: neighbor A remote-as ASN.
	{id: RuleNeighborRemoteAS, name: "neighbor-remote-as", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[2] != "remote-as" {
			return "", false, false
		}
		a.hit(RuleNeighborRemoteAS)
		a.mapNeighborToken(&c.words[1])
		c.words[3] = a.mapASNToken(c.words[3])
		return token.Join(c.words, c.gaps), true, true
	}},

	// A4: neighbor A local-as ASN.
	{id: RuleNeighborLocalAS, name: "neighbor-local-as", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[2] != "local-as" {
			return "", false, false
		}
		a.hit(RuleNeighborLocalAS)
		a.mapNeighborToken(&c.words[1])
		c.words[3] = a.mapASNToken(c.words[3])
		return token.Join(c.words, c.gaps), true, true
	}},

	// A5: bgp confederation identifier ASN.
	{id: RuleConfedID, name: "confed-identifier", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[1] != "confederation" || c.words[2] != "identifier" {
			return "", false, false
		}
		a.hit(RuleConfedID)
		c.words[3] = a.mapASNToken(c.words[3])
		return token.Join(c.words, c.gaps), true, true
	}},

	// A6: bgp confederation peers ASN...
	{id: RuleConfedPeers, name: "confed-peers", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[1] != "confederation" || c.words[2] != "peers" {
			return "", false, false
		}
		a.hit(RuleConfedPeers)
		for i := 3; i < len(c.words); i++ {
			c.words[i] = a.mapASNToken(c.words[i])
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// A7: set community V...
	{id: RuleSetCommunity, name: "set-community", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 3 || c.words[1] != "community" {
			return "", false, false
		}
		a.hit(RuleSetCommunity)
		for i := 2; i < len(c.words); i++ {
			c.words[i] = a.mapCommunityToken(c.words[i])
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// A8: set extcommunity rt|soo V...
	{id: RuleSetExtCommunity, name: "set-extcommunity", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[1] != "extcommunity" {
			return "", false, false
		}
		a.hit(RuleSetExtCommunity)
		for i := 3; i < len(c.words); i++ {
			c.words[i] = a.mapCommunityToken(c.words[i])
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// A9/A10: ip community-list entries, numeric or named form; each
	// entry token is a literal community (A9) or a regexp (A10).
	{id: RuleCommListLiteral, name: "community-list", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 5 || c.words[1] != "community-list" {
			return "", false, false
		}
		start := 4
		if c.words[2] == "standard" || c.words[2] == "expanded" {
			if len(c.words) < 6 {
				return token.Join(c.words, c.gaps), true, true
			}
			c.words[3] = a.forceHashName(c.words[3])
			start = 5
		}
		for i := start; i < len(c.words); i++ {
			c.words[i] = a.mapCommunityExpr(c.words[i])
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// A11: set as-path prepend ASN...
	{id: RuleASPathPrepend, name: "as-path-prepend", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 4 || c.words[1] != "as-path" || c.words[2] != "prepend" {
			return "", false, false
		}
		a.hit(RuleASPathPrepend)
		for i := 3; i < len(c.words); i++ {
			c.words[i] = a.mapASNToken(c.words[i])
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// A12: ip as-path access-list N permit|deny REGEXP.
	{id: RuleASPathRegexp, name: "as-path-access-list", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 6 || c.words[1] != "as-path" || c.words[2] != "access-list" {
			return "", false, false
		}
		a.hit(RuleASPathRegexp)
		// The regexp is everything after the action word; it may contain
		// spaces (alternation of path expressions), so rewrite the join.
		pattern := strings.Join(c.words[5:], " ")
		rewritten := a.rewriteASPath(pattern)
		c.words[5] = rewritten
		c.words = c.words[:6]
		c.gaps = append(c.gaps[:6], c.gaps[len(c.gaps)-1])
		return token.Join(c.words, c.gaps), true, true
	}},
}

// rewriteASPath rewrites an AS-path regexp through the Program's memo
// (the rewrite is a pure function of pattern and salt, so repeated
// patterns — across files, workers, and sessions — compute once),
// falling back to hashing when the pattern does not parse (conservatism
// over information preservation). Hit or miss, every public ASN the
// rewrite permuted is recorded for the leak report, and the per-
// occurrence statistics count as if the rewrite ran fresh.
func (a *Anonymizer) rewriteASPath(pattern string) string {
	res, err := a.prog.rewriteASN(pattern, a.recordASN)
	if err != nil {
		a.stats.RegexpFallbacks++
		return a.forceHash(pattern)
	}
	if res.Changed {
		a.stats.RegexpsRewritten++
	} else {
		a.stats.RegexpsUnchanged++
	}
	return res.Pattern
}

// mapCommunityExpr handles one community-list entry token: a literal
// community (A9), a well-known value, or a regexp (A10).
func (a *Anonymizer) mapCommunityExpr(w string) string {
	if isWellKnownCommunity(w) {
		return w
	}
	if _, _, ok := token.ParseCommunity(w); ok {
		a.hit(RuleCommListLiteral)
		return a.mapCommunityToken(w)
	}
	if token.IsInteger(w) {
		a.hit(RuleCommListLiteral)
		return a.mapCommunityToken(w)
	}
	a.hit(RuleCommListRegexp)
	res, err := a.prog.rewriteCommunity(w, a.recordASN)
	if err != nil {
		a.stats.RegexpFallbacks++
		return a.forceHash(w)
	}
	if res.Changed {
		a.stats.RegexpsRewritten++
	} else {
		a.stats.RegexpsUnchanged++
	}
	return res.Pattern
}

func isWellKnownCommunity(w string) bool {
	switch w {
	case "internet", "no-export", "no-advertise", "local-as", "additive", "none":
		return true
	}
	return false
}

// mapCommunityToken maps "asn:value" (both halves), an old-format 32-bit
// community (split into halves), or passes through keywords.
func (a *Anonymizer) mapCommunityToken(w string) string {
	if isWellKnownCommunity(w) {
		return w
	}
	if asnHalf, val, ok := token.ParseCommunity(w); ok {
		a.stats.CommunitiesMapped++
		if asn.IsPublic(asnHalf) {
			a.recordASN(asnHalf)
		}
		ma, mv := asn.MapCommunity(a.perms.ASN, a.perms.Value, asnHalf, val)
		out := strconv.FormatUint(uint64(ma), 10) + ":" + strconv.FormatUint(uint64(mv), 10)
		if a.tracer != nil {
			a.decide(trace.ClassCommunity, out)
		}
		return out
	}
	if token.IsInteger(w) {
		v, err := strconv.ParseUint(w, 10, 64)
		if err == nil && v > 0xFFFF && v <= 0xFFFFFFFF {
			// Old-format community: high half is the ASN.
			a.stats.CommunitiesMapped++
			hi, lo := uint32(v>>16), uint32(v&0xFFFF)
			if asn.IsPublic(hi) {
				a.recordASN(hi)
			}
			ma, mv := asn.MapCommunity(a.perms.ASN, a.perms.Value, hi, lo)
			out := strconv.FormatUint(uint64(ma)<<16|uint64(mv), 10)
			if a.tracer != nil {
				a.decide(trace.ClassCommunity, out)
			}
			return out
		}
		if err == nil && v <= 0xFFFF {
			a.stats.CommunitiesMapped++
			out := strconv.FormatUint(uint64(a.perms.Value.Map(uint32(v))), 10)
			if a.tracer != nil {
				a.decide(trace.ClassCommunity, out)
			}
			return out
		}
	}
	return a.forceHash(w)
}

// mapASNToken permutes a decimal ASN token; non-numeric tokens are hashed.
func (a *Anonymizer) mapASNToken(w string) string {
	if !token.IsInteger(w) {
		return a.forceHash(w)
	}
	v, err := strconv.ParseUint(w, 10, 32)
	if err != nil {
		return a.forceHash(w)
	}
	out := a.perms.ASN.Map(uint32(v))
	res := strconv.FormatUint(uint64(out), 10)
	if out != uint32(v) {
		a.stats.ASNsMapped++
		a.recordASN(uint32(v))
		if a.tracer != nil {
			a.decide(trace.ClassASN, res)
		}
	}
	return res
}

func (a *Anonymizer) recordASN(v uint32) {
	a.seenASNs[strconv.FormatUint(uint64(v), 10)] = true
}
