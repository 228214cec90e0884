// Package token implements the word-segmentation and token-classification
// layer of the anonymizer.
//
// The paper (§4.2) uses two rules to segment all words in a configuration
// into tokens before consulting the pass-list, so that an identifier like
// "Ethernet0/0" becomes the alphabetic string "ethernet" (which matches the
// pass-list) and a non-alphabetic remainder "0/0" (which needs no
// anonymization). Without this step the whole word would fail the pass-list
// and be hashed, destroying valuable information about the interface type.
//
// This package also classifies tokens (integers, IPv4 addresses, prefixes,
// netmasks, BGP community attributes, email addresses, phone numbers) so
// that the rule engine in internal/anonymizer can route each token to the
// appropriate anonymization mechanism.
package token

import (
	"slices"
	"strings"
	"unicode"
)

// Kind identifies the syntactic class of a token.
type Kind int

// Token kinds, ordered roughly by specificity: classification tries the
// most specific kinds first.
const (
	// Word is a run of alphabetic characters (candidate for the pass-list).
	Word Kind = iota
	// Integer is a run of decimal digits with no other structure.
	Integer
	// IPv4 is a dotted-quad IPv4 address.
	IPv4
	// IPv4Prefix is an address with a slash length, e.g. 10.1.2.0/24.
	IPv4Prefix
	// Community is a BGP community attribute written asn:value.
	Community
	// Email is an RFC-822ish mailbox, e.g. noc@example.net.
	Email
	// Phone is a phone-number-shaped string (digits with separators),
	// as found in dialer strings.
	Phone
	// HexString is a run of hexadecimal digits at least 8 long, as found
	// in encrypted password fields.
	HexString
	// Punct is a run of non-alphanumeric characters.
	Punct
	// Other is anything that fits no other class.
	Other
)

// String returns the name of the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Word:
		return "word"
	case Integer:
		return "integer"
	case IPv4:
		return "ipv4"
	case IPv4Prefix:
		return "ipv4prefix"
	case Community:
		return "community"
	case Email:
		return "email"
	case Phone:
		return "phone"
	case HexString:
		return "hexstring"
	case Punct:
		return "punct"
	default:
		return "other"
	}
}

// Segment is one piece of a split word.
type Segment struct {
	Text string
	Kind Kind
}

// SplitWord implements the paper's two segmentation rules.
//
// Rule S1 splits a word into maximal runs of alphabetic and non-alphabetic
// characters ("Ethernet0/0" -> "Ethernet", "0/0"). Rule S2 further splits
// alphabetic runs joined by single separators (dots and dashes) so that
// compound identifiers such as "cr1.sfo-serial3/0.8" yield each embedded
// word ("cr", "sfo", "serial") for individual pass-list consultation.
// NextSegment yields the same segments one at a time without allocating.
func SplitWord(w string) []Segment {
	var segs []Segment
	for s, i := NextSegment(w, 0); s.Text != ""; s, i = NextSegment(w, i) {
		segs = append(segs, s)
	}
	return segs
}

// NextSegment returns the segment of w that starts at byte offset i and
// the offset just past it: the segments SplitWord returns, one at a time
// and without allocating. seg.Text is "" once i reaches the end of w.
// The usual loop:
//
//	for s, i := NextSegment(w, 0); s.Text != ""; s, i = NextSegment(w, i) { ... }
func NextSegment(w string, i int) (seg Segment, next int) {
	if i >= len(w) {
		return Segment{}, len(w)
	}
	j := i
	switch {
	case isAlpha(w[i]):
		for j < len(w) && isAlpha(w[j]) {
			j++
		}
		seg.Kind = Word
	case isDigit(w[i]):
		for j < len(w) && isDigit(w[j]) {
			j++
		}
		seg.Kind = Integer
	default:
		for j < len(w) && !isAlpha(w[j]) && !isDigit(w[j]) {
			j++
		}
		seg.Kind = Punct
	}
	seg.Text = w[i:j]
	return seg, j
}

// Fields splits a configuration line into whitespace-separated words,
// preserving the exact byte ranges so the caller can reassemble the line.
// Leading and trailing whitespace and the separators themselves are kept in
// the Gaps slice: line == Gaps[0] + Words[0] + Gaps[1] + Words[1] + ... +
// Gaps[n].
//
// Both slices are carved from one allocation; each is capped at its
// length, so appending to one cannot overwrite the other. AppendFields
// is the form that reuses a caller's buffer.
func Fields(line string) (words []string, gaps []string) {
	words, gaps, _ = AppendFields(nil, line)
	return words, gaps
}

// AppendFields is Fields into a caller-owned buffer: it carves words and
// gaps from the tail of buf, past its length, and returns buf extended
// over them. buf grows, as append does, only when it is too short; its
// old prefix is never written. words and gaps are each capped at their
// length, so appending to one cannot overwrite the other, and both stay
// valid until the caller reuses buf's tail. The usual per-line reuse:
//
//	words, gaps, buf = AppendFields(buf[:0], line)
func AppendFields(buf []string, line string) (words, gaps, out []string) {
	n, inWord := 0, false
	for i := 0; i < len(line); i++ {
		space := isSpace(line[i])
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	start, need := len(buf), 2*n+1
	out = slices.Grow(buf, need)[:start+need]
	tail := out[start:]
	if n > 0 {
		words = tail[:n:n]
	}
	gaps = tail[n:need:need]
	i := 0
	for w := 0; ; w++ {
		j := i
		for j < len(line) && isSpace(line[j]) {
			j++
		}
		gaps[w] = line[i:j]
		if j == len(line) {
			return words, gaps, out
		}
		k := j
		for k < len(line) && !isSpace(line[k]) {
			k++
		}
		words[w] = line[j:k]
		i = k
	}
}

// NextWord returns the first word of s at or after byte offset i, and
// the offset just past it: the words Fields returns, one at a time and
// without allocating. word is "" once no word remains. The usual loop:
//
//	for w, i := NextWord(s, 0); w != ""; w, i = NextWord(s, i) { ... }
func NextWord(s string, i int) (word string, next int) {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isSpace(s[j]) {
		j++
	}
	return s[i:j], j
}

// CountFields returns len(strings.Fields(s)) without allocating: the
// number of runs of non-space characters, where space is what
// unicode.IsSpace says (so "\v", U+0085 and U+00A0 separate, and
// invalid UTF-8 does not). Banner and comment statistics count words
// with it; the engine's own tokenizer splits on spaces and tabs only.
func CountFields(s string) int {
	n, inWord := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	return n
}

// Join reassembles a line previously split by Fields, with possibly
// modified words. len(gaps) must be len(words)+1. Words replaced by the
// empty string are dropped together with the gap that preceded them.
func Join(words, gaps []string) string {
	size := len(gaps[len(gaps)-1])
	for i, w := range words {
		if w != "" {
			size += len(gaps[i]) + len(w)
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i, w := range words {
		if w == "" {
			continue
		}
		b.WriteString(gaps[i])
		b.WriteString(w)
	}
	b.WriteString(gaps[len(gaps)-1])
	return b.String()
}

// Classify determines the syntactic class of a whole (unsegmented) word.
func Classify(w string) Kind {
	switch {
	case w == "":
		return Other
	case IsIPv4(w):
		return IPv4
	case IsIPv4Prefix(w):
		return IPv4Prefix
	case IsCommunity(w):
		return Community
	case IsInteger(w):
		return Integer
	case IsEmail(w):
		return Email
	case IsPhone(w):
		return Phone
	case IsHexString(w):
		return HexString
	case isAllAlpha(w):
		return Word
	case isAllPunct(w):
		return Punct
	default:
		return Other
	}
}

// IsInteger reports whether w is a non-empty run of decimal digits.
func IsInteger(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		if !isDigit(w[i]) {
			return false
		}
	}
	return true
}

// ParseIPv4 parses a dotted-quad IPv4 address into its 32-bit value.
func ParseIPv4(w string) (uint32, bool) {
	var v uint32
	part := 0
	val := 0
	digits := 0
	for i := 0; i <= len(w); i++ {
		if i == len(w) || w[i] == '.' {
			if digits == 0 || digits > 3 || val > 255 {
				return 0, false
			}
			v = v<<8 | uint32(val)
			part++
			val, digits = 0, 0
			continue
		}
		if !isDigit(w[i]) {
			return 0, false
		}
		// Reject leading zeros such as "010" which some tools treat
		// as octal; configs write addresses in plain decimal.
		if digits > 0 && val == 0 {
			return 0, false
		}
		val = val*10 + int(w[i]-'0')
		digits++
	}
	if part != 4 {
		return 0, false
	}
	return v, true
}

// IsIPv4 reports whether w is a dotted-quad IPv4 address.
func IsIPv4(w string) bool {
	_, ok := ParseIPv4(w)
	return ok
}

// ParseIPv4Prefix parses "a.b.c.d/len" into address and prefix length.
func ParseIPv4Prefix(w string) (addr uint32, length int, ok bool) {
	slash := strings.IndexByte(w, '/')
	if slash < 0 {
		return 0, 0, false
	}
	addr, ok = ParseIPv4(w[:slash])
	if !ok {
		return 0, 0, false
	}
	rest := w[slash+1:]
	if !IsInteger(rest) || len(rest) > 2 {
		return 0, 0, false
	}
	length = int(rest[0] - '0')
	if len(rest) == 2 {
		length = length*10 + int(rest[1]-'0')
	}
	if length > 32 {
		return 0, 0, false
	}
	return addr, length, true
}

// IsIPv4Prefix reports whether w has the form a.b.c.d/len.
func IsIPv4Prefix(w string) bool {
	_, _, ok := ParseIPv4Prefix(w)
	return ok
}

// ParseCommunity parses a BGP community attribute "asn:value" where both
// halves are 16-bit decimal integers.
func ParseCommunity(w string) (asn, value uint32, ok bool) {
	colon := strings.IndexByte(w, ':')
	if colon <= 0 || colon == len(w)-1 {
		return 0, 0, false
	}
	a, b := w[:colon], w[colon+1:]
	if !IsInteger(a) || !IsInteger(b) {
		return 0, 0, false
	}
	asn = parseUint(a)
	value = parseUint(b)
	if asn > 0xFFFF || value > 0xFFFF {
		return 0, 0, false
	}
	return asn, value, true
}

// IsCommunity reports whether w is a BGP community attribute asn:value.
func IsCommunity(w string) bool {
	_, _, ok := ParseCommunity(w)
	return ok
}

// IsEmail reports whether w looks like an email address: non-empty local
// part, one '@', and a dotted domain.
func IsEmail(w string) bool {
	at := strings.IndexByte(w, '@')
	if at <= 0 || at == len(w)-1 {
		return false
	}
	if strings.IndexByte(w[at+1:], '@') >= 0 {
		return false
	}
	dom := w[at+1:]
	dot := strings.IndexByte(dom, '.')
	return dot > 0 && dot < len(dom)-1
}

// IsPhone reports whether w is phone-number shaped: at least seven digits
// among only digits, '-', '.', '(', ')', and '+', with at least one
// separator or a leading '+'. Plain digit runs are classified as Integer,
// not Phone; dialer strings are recognized by the rule engine from context.
func IsPhone(w string) bool {
	if w == "" {
		return false
	}
	digits, seps := 0, 0
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case isDigit(c):
			digits++
		case c == '-' || c == '.' || c == '(' || c == ')':
			seps++
		case c == '+' && i == 0:
			seps++
		default:
			return false
		}
	}
	return digits >= 7 && seps >= 1
}

// IsPhoneDigits reports whether w is a bare digit string long enough to be
// a phone number (used inside dialer-string context, where even bare digit
// runs are phone numbers).
func IsPhoneDigits(w string) bool {
	return IsInteger(w) && len(w) >= 7
}

// IsHexString reports whether w is a run of at least eight hex digits that
// contains at least one letter (so plain integers are not captured).
func IsHexString(w string) bool {
	if len(w) < 8 {
		return false
	}
	letters := 0
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case isDigit(c):
		case c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
			letters++
		default:
			return false
		}
	}
	return letters > 0
}

func parseUint(s string) uint32 {
	var v uint32
	for i := 0; i < len(s); i++ {
		v = v*10 + uint32(s[i]-'0')
		if v > 0xFFFFFF {
			return v // avoid overflow; caller range-checks
		}
	}
	return v
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isSpace(c byte) bool { return c == ' ' || c == '\t' }

func isAllAlpha(w string) bool {
	for i := 0; i < len(w); i++ {
		if !isAlpha(w[i]) {
			return false
		}
	}
	return w != ""
}

func isAllPunct(w string) bool {
	for i := 0; i < len(w); i++ {
		if isAlpha(w[i]) || isDigit(w[i]) {
			return false
		}
	}
	return w != ""
}

// FormatIPv4 renders a 32-bit value as a dotted quad.
func FormatIPv4(v uint32) string {
	var b [15]byte
	return string(AppendIPv4(b[:0], v))
}

// AppendIPv4 appends the dotted quad of v to b.
func AppendIPv4(b []byte, v uint32) []byte {
	for i := 3; i >= 0; i-- {
		oct := byte(v >> (8 * uint(i)))
		if oct >= 100 {
			b = append(b, '0'+oct/100)
		}
		if oct >= 10 {
			b = append(b, '0'+oct/10%10)
		}
		b = append(b, '0'+oct%10)
		if i > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// TrimPunct splits a word into leading punctuation, a core token, and
// trailing punctuation. Configuration dialects attach separators to
// values — JunOS writes "address 12.0.0.1/30;" and "members [ 701:100
// 701:200 ];" — and the core must be classified and anonymized with the
// punctuation reattached afterwards. Characters considered wrapping are
// the structural ones: ; , { } [ ] " ' ( ) — but a core that is itself
// punctuation-only is returned unchanged, and parentheses are kept with
// the core when it contains regexp metacharacters (so policy regexps are
// not torn apart).
func TrimPunct(w string) (lead, core, trail string) {
	isWrap := func(c byte) bool {
		switch c {
		case ';', ',', '{', '}', '[', ']', '"', '\'':
			return true
		}
		return false
	}
	i, j := 0, len(w)
	for i < j && isWrap(w[i]) {
		i++
	}
	for j > i && isWrap(w[j-1]) {
		j--
	}
	return w[:i], w[i:j], w[j:]
}
