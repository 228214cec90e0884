// Package anonymizer implements the paper's anonymization method: the
// basic pass-list/hash mechanism of §4.1 operating under the set of
// context-establishing rules of §4.2, with IP addresses, AS numbers, and
// BGP community attributes delegated to the structure-preserving mappers
// in internal/ipanon, internal/asn, and internal/cregex.
package anonymizer

import (
	"crypto/sha1"
	"encoding/hex"
)

// RuleID names one of the 28 context rules ("we have discovered a set of
// 28 rules that is sufficient for anonymizing the 200-plus IOS versions we
// have tested them on", §4.2). The engine counts per-rule hits so the
// experiments can report which rules fire on which corpora.
type RuleID string

// The rule inventory. The paper itemizes the subsets: 2 token-segmentation
// rules, 3 comment-stripping rules, 12 ASN-location rules, and 4
// miscellaneous rules; the remainder establish context for IP address
// pairs, bare community attributes, and the leak-highlighting pass.
const (
	// Token segmentation (2).
	RuleSegmentAlpha RuleID = "S1-segment-alpha-nonalpha"
	RuleSegmentWords RuleID = "S2-segment-compound-words"

	// Comment stripping (3).
	RuleBanner      RuleID = "C1-strip-banner-blocks"
	RuleDescription RuleID = "C2-strip-description-lines"
	RuleCommentLine RuleID = "C3-strip-comment-lines"

	// Miscellaneous (4).
	RuleDialerString  RuleID = "M1-dialer-string-phone"
	RuleSNMPCommunity RuleID = "M2-snmp-community-secret"
	RuleHostname      RuleID = "M3-hostname-domain"
	RuleCredentials   RuleID = "M4-username-password-key"

	// ASN location (12).
	RuleBGPProcess       RuleID = "A1-router-bgp"
	RuleRedistributeBGP  RuleID = "A2-redistribute-bgp"
	RuleNeighborRemoteAS RuleID = "A3-neighbor-remote-as"
	RuleNeighborLocalAS  RuleID = "A4-neighbor-local-as"
	RuleConfedID         RuleID = "A5-confederation-identifier"
	RuleConfedPeers      RuleID = "A6-confederation-peers"
	RuleSetCommunity     RuleID = "A7-set-community"
	RuleSetExtCommunity  RuleID = "A8-set-extcommunity"
	RuleCommListLiteral  RuleID = "A9-community-list-literal"
	RuleCommListRegexp   RuleID = "A10-community-list-regexp"
	RuleASPathPrepend    RuleID = "A11-as-path-prepend"
	RuleASPathRegexp     RuleID = "A12-as-path-access-list-regexp"

	// IP address context (5).
	RuleAddrNetmask  RuleID = "I1-address-netmask-pair"
	RuleAddrWildcard RuleID = "I2-address-wildcard-pair"
	RuleBareAddr     RuleID = "I3-bare-address"
	RuleSlashPrefix  RuleID = "I4-slash-prefix"
	RuleClassfulNet  RuleID = "I5-classful-network"

	// Community attribute context (1).
	RuleBareCommunity RuleID = "K1-bare-community-token"

	// Leak highlighting (1) — the iterative methodology of §6.1.
	RuleLeakHighlight RuleID = "L1-leak-highlight"

	// Extension rules beyond the paper's 28 (see DESIGN.md §6). Name
	// positions implement §4.1's "anonymizes the names of class-maps,
	// route-maps, and any other strings that could hold privileged
	// information" as explicit inventory entries.
	RuleNamePosition RuleID = "N1-name-position"
)

// hashWord is the basic method's anonymizer: a salted SHA-1 digest
// rendered as a 12-hex-digit identifier with a letter prefix so the result
// can never be mistaken for a number, address, or community. Equal inputs
// map to equal outputs, which is what maintains referential integrity
// across every use of a hashed identifier. Its one allocation is the
// result; appendHashWord writes the same identifier into a buffer.
func hashWord(salt []byte, w string) string {
	var b [1 + 2*hashBytes]byte
	return string(appendHashWord(b[:0], salt, w))
}

// hashBytes is how many digest bytes a hashed word keeps.
const hashBytes = 6

// appendHashWord appends hashWord(salt, w) to dst.
func appendHashWord(dst, salt []byte, w string) []byte {
	sum := saltedSum(salt, 0, w) // 0: domain separation from other salted uses
	return hex.AppendEncode(append(dst, 'x'), sum[:hashBytes])
}

// saltedSum is SHA-1 over salt, the domain separator sep and w, hashed
// from a stack buffer when they fit in it.
func saltedSum(salt []byte, sep byte, w string) [sha1.Size]byte {
	var stack [128]byte
	b := append(stack[:0], salt...)
	b = append(b, sep)
	return sha1.Sum(append(b, w...))
}

// hashDigits maps a digit string (a phone number) to another digit string
// of the same length, so dialer strings remain syntactically valid.
func hashDigits(salt []byte, w string) string {
	sum := saltedSum(salt, 1, w)
	var stack [32]byte
	out := stack[:0]
	for i := 0; i < len(w); i++ {
		out = append(out, '0'+sum[i%len(sum)]%10)
	}
	return string(out)
}

// hashDigitsHex maps a lowercase hex string to another of the same
// length (the MAC token action, pack.go). Domain-separated from the
// word and digit hashes.
func hashDigitsHex(salt []byte, w string) []byte {
	sum := saltedSum(salt, 2, w)
	out := make([]byte, len(w))
	for i := range out {
		out[i] = hexDigit(sum[i%len(sum)] & 0x0F)
	}
	return out
}
