package anonymizer

import (
	"strings"

	"confanon/internal/token"
)

// Comment-stripping entries (C1–C3). The banner-body and JunOS
// block-comment halves of these rules are structural (cross-line state)
// and live in the engine; the entries here are the line-scoped halves.

var commentLineRules = []*lineRule{
	// C3: free-text comment lines ("! text"). A bare "!" is a section
	// separator and is kept. Key-less: the trigger is a "!" prefix, not a
	// word literal.
	{id: RuleCommentLine, name: "comment-line", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if !strings.HasPrefix(c.words[0], "!") {
			return "", false, false
		}
		if len(c.words) > 1 || len(c.words[0]) > 1 {
			a.hit(RuleCommentLine)
			a.stats.CommentLinesRemoved++
			a.stats.CommentWordsRemoved += int64(commentWordCount(c.words))
			if a.stripComments() {
				return "", false, true
			}
			return c.raw, true, true
		}
		return c.raw, true, true
	}},

	// C1: banner header. Keep the skeleton, strip the body that follows
	// (the body lines are handled structurally by the engine). A banner
	// whose delimiter closes on the header line itself ("banner login
	// #text#") has its body there: it is stripped and counted like any
	// banner text, the "banner <kind>" skeleton and both delimiters are
	// kept, and no banner state is entered.
	{id: RuleBanner, name: "banner-header", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		a.hit(RuleBanner)
		delim := byte('^')
		if len(c.words) >= 3 {
			delim = c.words[2][0]
			open := len(c.gaps[0]) + len(c.words[0]) + len(c.gaps[1]) + len(c.words[1]) + len(c.gaps[2])
			if body, _, closed := strings.Cut(c.raw[open+1:], string(delim)); closed {
				a.stats.CommentLinesRemoved++
				a.stats.CommentWordsRemoved += int64(token.CountFields(body))
				if a.stripComments() {
					return c.raw[:open+1] + string(delim), true, true
				}
				return c.raw, true, true
			}
		}
		c.st.inBanner = true
		c.st.bannerDelim = delim
		return c.raw, true, true
	}},

	// C2: description / remark free text.
	{id: RuleDescription, name: "description-line",
		apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
			if !isDescriptionLine(c.words) {
				return "", false, false
			}
			a.hit(RuleDescription)
			a.stats.CommentLinesRemoved++
			a.stats.CommentWordsRemoved += int64(commentWordCount(c.words))
			if a.stripComments() {
				return "", false, true
			}
			return c.raw, true, true
		}},
}

func commentWordCount(words []string) int {
	n := len(words)
	if words[0] == "!" || words[0] == "description" || words[0] == "remark" {
		n--
	}
	return n
}

func isDescriptionLine(words []string) bool {
	if words[0] == "description" || words[0] == "remark" {
		return true
	}
	// "neighbor A description ..." inside router bgp.
	if words[0] == "neighbor" && len(words) >= 3 && words[2] == "description" {
		return true
	}
	// "access-list N remark ..."
	if words[0] == "access-list" && len(words) >= 3 && words[2] == "remark" {
		return true
	}
	return false
}

// Miscellaneous entries (M1–M4). The secrets on these lines are
// anonymized even when their words would pass the pass-list, because the
// values are identity-bearing by position.

var miscLineRules = []*lineRule{
	// M1: everything after "dialer string" is a phone number.
	{id: RuleDialerString, name: "dialer-string", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 3 || c.words[1] != "string" {
			return "", false, false
		}
		a.hit(RuleDialerString)
		for i := 2; i < len(c.words); i++ {
			if token.IsPhoneDigits(c.words[i]) || token.IsPhone(c.words[i]) {
				c.words[i] = hashDigits(a.opts.Salt, c.words[i])
			} else {
				c.words[i] = a.forceHash(c.words[i])
			}
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// M2: the community string is a credential; the trailing words
	// (RO/RW, ACL number) are keywords.
	{id: RuleSNMPCommunity, name: "snmp-community", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 3 || c.words[1] != "community" {
			return "", false, false
		}
		a.hit(RuleSNMPCommunity)
		c.words[2] = a.forceHash(c.words[2])
		return token.Join(c.words, c.gaps), true, true
	}},

	// M3: the hostname names the owner; hash each alphabetic segment even
	// if pass-listed, preserving the dotted shape.
	{id: RuleHostname, name: "hostname", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 2 {
			return "", false, false
		}
		a.hit(RuleHostname)
		c.words[1] = a.hashAllSegments(c.words[1])
		return token.Join(c.words, c.gaps), true, true
	}},

	// M3 (domain form): "ip domain-name D" / "ip domain name D".
	{id: RuleHostname, name: "domain-name", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if !(len(c.words) >= 3 && c.words[1] == "domain-name") &&
			!(len(c.words) >= 4 && c.words[1] == "domain" && c.words[2] == "name") {
			return "", false, false
		}
		a.hit(RuleHostname)
		last := len(c.words) - 1
		c.words[last] = a.hashAllSegments(c.words[last])
		return token.Join(c.words, c.gaps), true, true
	}},

	// M4: the username and any password/secret/key material.
	{id: RuleCredentials, name: "username", apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
		if len(c.words) < 2 {
			return "", false, false
		}
		a.hit(RuleCredentials)
		c.words[1] = a.forceHash(c.words[1])
		for i := 2; i < len(c.words)-1; i++ {
			if c.words[i] == "password" || c.words[i] == "secret" || c.words[i] == "key" {
				last := len(c.words) - 1
				c.words[last] = a.forceHash(c.words[last])
				break
			}
		}
		return token.Join(c.words, c.gaps), true, true
	}},

	// M4 (server form): enable / tacacs-server / radius-server secrets.
	{id: RuleCredentials, name: "server-credentials",
		apply: func(a *Anonymizer, c *lineCtx) (string, bool, bool) {
			if !containsAny(c.words, "password", "secret", "key") {
				return "", false, false
			}
			a.hit(RuleCredentials)
			c.words[len(c.words)-1] = a.forceHash(c.words[len(c.words)-1])
			return token.Join(c.words, c.gaps), true, true
		}},
}

func containsAny(words []string, keys ...string) bool {
	for _, w := range words {
		for _, k := range keys {
			if w == k {
				return true
			}
		}
	}
	return false
}
