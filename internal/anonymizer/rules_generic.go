package anonymizer

import (
	"slices"
	"strconv"

	"confanon/internal/config"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// The generic word pass: the engine's terminal stage, where the
// token-scoped inventory rules fire — the IP rules (I1–I5), the
// bare-community rule (K1), and the basic method (segmentation S1/S2 +
// pass-list + hash) — over every word of a line not consumed by a line
// rule.

// genericWords applies the token-scoped rules to a word slice.
//
// Words are stripped of structural punctuation first (JunOS attaches
// semicolons, brackets, and quotes to values: "address 12.0.0.1/30;"),
// processed on their cores, and reassembled. Leads, cores and trails are
// carved from the worker's generic buffer (Anonymizer.gen), reused by
// the next call: they are valid only until this call returns, by which
// point every census hole in a core has moved to its word.
func (a *Anonymizer) genericWords(words []string, st *fileState) {
	n := len(words)
	a.gen = slices.Grow(a.gen[:0], 3*n)[:3*n]
	leads, cores, trails := a.gen[:n:n], a.gen[n:2*n:2*n], a.gen[2*n:]
	for i, w := range words {
		leads[i], cores[i], trails[i] = token.TrimPunct(w)
	}
	a.genericCores(cores, st)
	for i := range words {
		words[i] = leads[i] + cores[i] + trails[i]
	}
	if a.tmpl != nil {
		a.tmpl.moveHoles(cores, words, leads)
	}
}

// genericCores runs the word-level rules over punctuation-stripped cores.
func (a *Anonymizer) genericCores(words []string, st *fileState) {
	block := ""
	if st != nil {
		block = st.block
	}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if w == "" {
			continue
		}
		if a.lineShield != nil && a.lineShield[w] {
			// A pack line rule already produced this value on this line;
			// re-hashing it would break the pack action's output shape.
			continue
		}
		if a.sensitiveTokens[w] {
			// Operator-added rule: treat a numeric token as an ASN,
			// anything else as a hashable word.
			a.curRule = pseudoRuleOperator
			if token.IsInteger(w) {
				words[i] = a.mapASNToken(w)
			} else {
				words[i] = a.forceHash(w)
			}
			continue
		}
		if rule, addr, length, width, ok := ipAt(words, i, block); ok {
			a.mapIP(&words[i], rule, addr, length)
			i += width - 1 // a pair's mask or wildcard passes through unchanged
			continue
		}
		if _, _, ok := token.ParseCommunity(w); ok {
			a.hit(RuleBareCommunity)
			words[i] = a.mapCommunityToken(w)
			continue
		}
		// Pack token rules (MAC addresses and the like) fire between the
		// structural token classes above and the basic method below.
		if len(a.rules.token) > 0 {
			if repl, ok := a.applyTokenRules(w); ok {
				words[i] = repl
				continue
			}
		}
		if token.IsInteger(w) {
			// "Simple integers are generally not anonymized."
			continue
		}
		words[i] = a.hashIfPrivileged(w)
	}
}

// ipAt recognizes the IPv4 address at cores[i], the punctuation-stripped
// words of a line inside block (its top-level block, "" when unknown):
// the I rule it falls under, the address, the prefix length its context
// gives it (-1 for a bare address, I3) and how many words the form spans
// (3 for "A mask M", 2 for an address with its netmask or wildcard, 1
// otherwise, and when ok is false: cores[i] is no address). It is the one
// statement of which prefixes a line names: the generic pass maps what
// it returns, and a file's pins are the prefix calls those mappings make
// (template.go), so the pins are exactly the prefixes the rewrite maps
// (§4.3).
func ipAt(cores []string, i int, block string) (rule RuleID, addr uint32, length, width int, ok bool) {
	addr, ok = token.ParseIPv4(cores[i])
	if !ok {
		// I4: a.b.c.d/len.
		addr, length, ok = token.ParseIPv4Prefix(cores[i])
		return RuleSlashPrefix, addr, length, 1, ok
	}
	// I1 variant: "network A mask M" (BGP network statements).
	if i+2 < len(cores) && cores[i+1] == "mask" {
		if m, mok := token.ParseIPv4(cores[i+2]); mok {
			if l, isMask := config.MaskToLen(m); isMask {
				return RuleAddrNetmask, addr, l, 3, true
			}
		}
	}
	// I1/I2: the address followed by a netmask or a wildcard.
	if i+1 < len(cores) {
		if second, ok2 := token.ParseIPv4(cores[i+1]); ok2 {
			if l, isMask := config.MaskToLen(second); isMask && second != 0 {
				return RuleAddrNetmask, addr, l, 2, true
			}
			if l, isWild := config.MaskToLen(^second); isWild {
				return RuleAddrWildcard, addr, l, 2, true
			}
		}
	}
	// I5: classful network statements under RIP/EIGRP/IGRP.
	if i > 0 && cores[i-1] == "network" &&
		(block == "router rip" || block == "router eigrp" || block == "router igrp") {
		l, _ := config.MaskToLen(config.ClassfulMask(addr))
		return RuleClassfulNet, addr, l, 1, true
	}
	return RuleBareAddr, addr, -1, 1, true
}

// mapIP maps an address ipAt recognized into the word slot w and counts
// its rule. A bare address (length < 0) maps as a host; a slash prefix
// maps as its network, keeping the length; an address whose context
// gives it a prefix pins the subnet address first (so subnet-address
// preservation holds whatever order hosts appear in), then maps itself.
func (a *Anonymizer) mapIP(w *string, rule RuleID, addr uint32, length int) {
	a.hit(rule)
	a.stats.IPsMapped++
	switch {
	case length < 0:
		a.renderIP(w, a.mapHost(addr), -1)
	case rule == RuleSlashPrefix:
		a.renderIP(w, a.mapNet(addr, length), length)
	default:
		net := addr & config.LenToMask(length)
		out := a.mapNet(net, length)
		if addr != net {
			out = a.mapHost(addr)
		}
		a.renderIP(w, out, -1)
	}
}

// mapHost maps one address through the mapper (see noteIP).
func (a *Anonymizer) mapHost(v uint32) uint32 {
	out := a.ip.MapV4(v)
	a.noteIP(v, out)
	return out
}

// mapNet maps the network address of a prefix through the mapper (see
// noteIP).
func (a *Anonymizer) mapNet(addr uint32, length int) uint32 {
	out := a.ip.MapPrefix(addr, length)
	a.noteIP(addr&config.LenToMask(length), out)
	return out
}

// noteIP records an original address in the leak recorder when its
// image differs from it. This is the one place a mapper output feeds
// back into the engine. A census does not know the image yet: its
// fill makes the check for every call in its log, each of which came
// through here (template.go).
func (a *Anonymizer) noteIP(in, out uint32) {
	if out != in && a.tmpl == nil {
		a.seenIPs[in] = true
	}
}

// renderIP writes the image of the mapper call just made into the word
// slot w, followed by "/length" for a slash prefix (length >= 0), and
// buffers its IP decision. In a census the image is a stand-in and the
// slot becomes a hole the fill writes (template.go). The text is
// rendered on the stack and allocated once.
func (a *Anonymizer) renderIP(w *string, out uint32, length int) {
	var b [len("255.255.255.255/32")]byte
	text := token.AppendIPv4(b[:0], out)
	n := len(text)
	if length >= 0 {
		text = strconv.AppendInt(append(text, '/'), int64(length), 10)
	}
	res := string(text)
	*w = res
	if a.tmpl != nil {
		a.tmpl.hole(w, n, res)
	}
	if a.tracer != nil {
		a.decide(trace.ClassIP, res)
		if a.tmpl != nil {
			a.tmpl.decisionHole(len(a.pending)-1, res[n:])
		}
	}
}

// hashIfPrivileged applies the basic method to one word: segment (S1/S2),
// consult the pass-list, and hash what is not known innocuous. Segments
// come from token.NextSegment and the rewritten word is built in the
// worker's byte buffer, becoming a string only when a segment changed.
func (a *Anonymizer) hashIfPrivileged(w string) string {
	kind := token.Classify(w)
	switch kind {
	case token.Email, token.Phone, token.HexString:
		return a.forceHash(w)
	case token.Punct:
		return w
	}
	// Whole-word pass-list hit first: hyphenated keywords such as
	// "route-map" and "access-list" are listed as units.
	if a.pass.Contains(w) {
		a.stats.TokensPassed++
		if a.tracer != nil {
			a.decideAs(pseudoRuleBasic, trace.ClassPassed, w)
		}
		return w
	}
	if kind == token.Word {
		// One alphabetic segment, and the pass-list just missed it.
		a.stats.TokensHashed++
		a.seenWords[w] = true
		res := hashWord(a.opts.Salt, w)
		if a.tracer != nil {
			a.decideAs(pseudoRuleBasic, trace.ClassHashed, res)
		}
		return res
	}
	b := a.out[:0]
	changed := false
	segs, alpha := 0, 0
	for s, i := token.NextSegment(w, 0); s.Text != ""; s, i = token.NextSegment(w, i) {
		segs++
		if s.Kind == token.Word {
			alpha++
			if !a.pass.Contains(s.Text) {
				a.stats.TokensHashed++
				a.seenWords[s.Text] = true
				if !changed {
					b = append(b, w[:i-len(s.Text)]...)
					changed = true
				}
				b = appendHashWord(b, a.opts.Salt, s.Text)
				continue
			}
			a.stats.TokensPassed++
		}
		if changed {
			b = append(b, s.Text...)
		}
	}
	a.out = b
	if segs > 1 {
		a.hit(RuleSegmentAlpha)
		if alpha > 1 {
			a.hit(RuleSegmentWords)
		}
	}
	if !changed {
		if a.tracer != nil {
			a.decideAs(pseudoRuleBasic, trace.ClassPassed, w)
		}
		return w
	}
	res := string(b)
	if a.tracer != nil {
		a.decideAs(pseudoRuleBasic, trace.ClassHashed, res)
	}
	return res
}

// forceHash hashes a whole token regardless of the pass-list; used where
// position marks the value as identity-bearing (credentials, hostnames,
// fallbacks).
func (a *Anonymizer) forceHash(w string) string {
	a.stats.TokensHashed++
	a.seenWords[w] = true
	out := hashWord(a.opts.Salt, w)
	if a.tracer != nil {
		a.decide(trace.ClassHashed, out)
	}
	return out
}

// hashAllSegments hashes every alphabetic segment of a word, keeping the
// punctuation skeleton (dots of a hostname), ignoring the pass-list. Like
// hashIfPrivileged it builds the result in the worker's byte buffer.
func (a *Anonymizer) hashAllSegments(w string) string {
	b := a.out[:0]
	changed := false
	for s, i := token.NextSegment(w, 0); s.Text != ""; s, i = token.NextSegment(w, i) {
		if s.Kind == token.Word {
			a.stats.TokensHashed++
			a.seenWords[s.Text] = true
			b = appendHashWord(b, a.opts.Salt, s.Text)
			changed = true
		} else {
			b = append(b, s.Text...)
		}
	}
	a.out = b
	res := w
	if changed {
		res = string(b)
	}
	if a.tracer != nil {
		a.decide(trace.ClassHashed, res)
	}
	return res
}
