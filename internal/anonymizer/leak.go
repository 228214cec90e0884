package anonymizer

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"

	"confanon/internal/ipanon"
	"confanon/internal/token"
)

// Leak is one suspicious token found in anonymized output: a value the
// anonymizer saw (and mapped) during processing that nevertheless appears
// verbatim in the output, usually because it occurred in a context none of
// the rules recognize. Leaks drive the iterative methodology of §6.1: a
// human reviews them and adds rules (AddSensitiveToken) until the report
// is empty.
type Leak struct {
	Line int    // 1-based line number in the post-anonymization text
	Text string // the full line
	Tok  string // the suspicious token
	Kind string // "asn", "word", "ip", "ip6", or "pack"
	// LikelyFalsePositive marks ASN hits in positions where small
	// integers are ubiquitous (OSPF process ids, areas, sequence
	// numbers). The paper hits the same wall: grepping for Genuity's
	// AS 1 "will appear in many unrelated config lines". These hits are
	// reported for human review but should not block publication alone.
	LikelyFalsePositive bool
}

// String formats the leak for the operator.
func (l Leak) String() string {
	note := ""
	if l.LikelyFalsePositive {
		note = " (likely false positive)"
	}
	return fmt.Sprintf("line %d: %s %q in %q%s", l.Line, l.Kind, l.Tok, l.Text, note)
}

// innocuousIntContext lists keywords after which an integer is routinely
// a process id, area, sequence number, or similar local value rather than
// an AS number.
var innocuousIntContext = map[string]bool{
	"ospf": true, "area": true, "version": true, "seq": true, "cost": true,
	"bandwidth": true, "metric": true, "distance": true, "eq": true,
	"gt": true, "lt": true, "permit": true, "deny": true, "priority": true,
	"access-list": true, "community-list": true, "as-path": true,
	"preference": true, "local-preference": true, "weight": true,
	"timers": true, "keepalive": true, "mtu": true, "delay": true,
}

// LeakReport scans anonymized output for recorded sensitive values that
// survived: public ASNs the permutation mapped, words the hash replaced,
// and original (pre-anonymization) IP addresses. The engine does not map
// IPv6 yet, so every IPv6 address or prefix that is not special, and
// every half-hashed one (isPublicIPv6), is reported as a confirmed leak,
// whether or not the recorder saw it: under Options.Strict such a file
// is quarantined rather than published in cleartext. The scan reads the
// Session's recorder, which every worker publishes into at each file
// boundary, so it sees everything every worker of the Session has
// processed. False positives are possible — an anonymized value may
// coincide with some other original value (the paper notes the same
// weakness: grepping for AS 1 flags many unrelated lines) — which is
// exactly why the report is reviewed by a human rather than acted on
// automatically. The report runs as one unit, fail-open: a panic
// propagates, so a gate never reads a crashed scan as a clean one.
func (a *Anonymizer) LeakReport(post string) (leaks []Leak) {
	failOpen(a.unit("", "", func() error {
		leaks = a.leakReport(post)
		return nil
	}))
	return leaks
}

// leakReport is LeakReport's body. It publishes the unit's own pending
// recorder entries first, so a report inside a stream's unit sees what
// that file recorded (entries are never retracted, so publishing early
// is safe). It walks post in place, word by word, and reads the clock
// once: the scan's time goes to the rules that fired in it.
func (a *Anonymizer) leakReport(post string) []Leak {
	before := a.stats.ruleHits
	start := time.Now()
	a.flushRecorder()
	s := a.sess
	s.recMu.RLock()
	defer s.recMu.RUnlock()
	var leaks []Leak
	for n, rest := 1, post; ; n++ {
		line := rest
		nl := strings.IndexByte(rest, '\n')
		if nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		}
		prev := ""
		for w, i := token.NextWord(line, 0); w != ""; w, i = token.NextWord(line, i) {
			pred := prev
			prev = w
			switch {
			case s.seenASNs[w]:
				a.hit(RuleLeakHighlight)
				leaks = append(leaks, Leak{Line: n, Text: line, Tok: w, Kind: "asn",
					LikelyFalsePositive: innocuousIntContext[pred]})
			case s.seenWords[w]:
				a.hit(RuleLeakHighlight)
				leaks = append(leaks, Leak{Line: n, Text: line, Tok: w, Kind: "word"})
			default:
				if v, ok := token.ParseIPv4(w); ok && !ipanon.IsSpecial(v) && s.seenIPs[v] {
					a.hit(RuleLeakHighlight)
					// Every bare dotted-quad is mapped by rule I3, so an
					// original address can only appear in output when some
					// other address maps onto it — a permutation collision,
					// not a leak. A flagged token that is a known mapping
					// output is therefore almost certainly a false positive.
					fp := s.ipOutputs(len(s.seenIPs))[v]
					leaks = append(leaks, Leak{Line: n, Text: line, Tok: w, Kind: "ip",
						LikelyFalsePositive: fp})
					continue
				}
				if strings.Count(w, ":") >= 2 && isPublicIPv6(w) {
					a.hit(RuleLeakHighlight)
					leaks = append(leaks, Leak{Line: n, Text: line, Tok: w, Kind: "ip6"})
					continue
				}
				// Pack report rules: extra leak patterns a loaded pack
				// flags. They can only add findings, never suppress the
				// recorder-driven checks above.
				for _, rr := range a.rules.report {
					if rr.m.MatchToken(w) {
						a.hit(rr.id)
						leaks = append(leaks, Leak{Line: n, Text: line, Tok: w, Kind: "pack"})
						break
					}
				}
			}
		}
		if nl < 0 {
			break
		}
	}
	d := time.Since(start)
	a.attribute(&before, d)
	a.countLeaks(leaks)
	a.observeStage(stageLeakReport, d)
	return leaks
}

// GateRevision identifies what leakReport reports for a given recorder:
// its recorder-independent checks (ip6, pack report rules) and how it
// classifies a recorded value it finds (innocuousIntContext, the ip
// false-positive test). The incremental file cache records it, and a
// cache recorded under another revision vouches for no served file, so
// any change to those checks must bump it. Revision 2 flags
// half-hashed IPv6 addresses (halfHashedIPv6).
const GateRevision = 2

// RecorderSizes counts a leak recorder's entries by kind.
type RecorderSizes struct{ ASNs, Words, IPs int }

// RecorderDelta collects the values a Session's leak recorder gains
// while it is tracked (TrackRecorder): the entries flushRecorder newly
// adds, from every worker of the Session. Restores (RestoreState) merge
// outside it.
type RecorderDelta struct {
	s *Session
	// From is the recorder's sizes when tracking began.
	From RecorderSizes
	vals []string
}

// TrackRecorder starts collecting the values the recorder gains, until
// the returned delta's Stop.
func (s *Session) TrackRecorder() *RecorderDelta {
	d := &RecorderDelta{s: s}
	s.recMu.Lock()
	d.From = s.recorderSizes()
	s.deltas = append(s.deltas, d)
	s.recMu.Unlock()
	return d
}

// Stop ends the tracking; a second call collects nothing more. It
// returns the values the recorder gained — ASNs and words as recorded,
// addresses as canonical dotted quads, so each is the text a leak
// report would match — and the recorder's sizes, read under the same
// lock.
func (d *RecorderDelta) Stop() ([]string, RecorderSizes) {
	s := d.s
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.deltas = slices.DeleteFunc(s.deltas, func(x *RecorderDelta) bool { return x == d })
	return d.vals, s.recorderSizes()
}

// recorderSizes reads the recorder's sizes; callers hold recMu.
func (s *Session) recorderSizes() RecorderSizes {
	return RecorderSizes{ASNs: len(s.seenASNs), Words: len(s.seenWords), IPs: len(s.seenIPs)}
}

// noteDelta hands a value new to the recorder to every tracked delta;
// callers hold recMu for writing.
func (s *Session) noteDelta(v string) {
	for _, d := range s.deltas {
		d.vals = append(d.vals, v)
	}
}

// ipv6Doc is the IPv6 documentation prefix (RFC 3849).
var ipv6Doc = netip.MustParsePrefix("2001:db8::/32")

// isPublicIPv6 reports whether a token, stripped of structural
// punctuation, is an IPv6 address or prefix outside the special scopes
// that identify no network (loopback, unspecified, link-local,
// multicast and the documentation prefix), or is a half-hashed one (see
// halfHashedIPv6). netip is asked only about tokens of IPv6 shape
// (ipv6Shaped): its errors allocate, and a MAC address or a time is
// colon-separated too.
func isPublicIPv6(w string) bool {
	_, core, _ := token.TrimPunct(w)
	if !ipv6Shaped(core) {
		return halfHashedIPv6(core)
	}
	addr, err := netip.ParseAddr(core)
	if err != nil {
		p, perr := netip.ParsePrefix(core)
		if perr != nil {
			return halfHashedIPv6(core)
		}
		addr = p.Addr()
	}
	if !addr.Is6() {
		return false
	}
	return !(addr.IsLoopback() || addr.IsUnspecified() || addr.IsLinkLocalUnicast() ||
		addr.IsMulticast() || ipv6Doc.Contains(addr))
}

// ipv6Shaped reports whether core could parse as an IPv6 address or
// prefix: before any prefix length or zone, its colon groups are empty
// or 1–4 hex digits, the last one possibly a dotted IPv4 tail, and it
// holds "::" or eight groups (an IPv4 tail filling two). Every token
// netip parses as IPv6 has this shape.
func ipv6Shaped(core string) bool {
	addr, _, _ := strings.Cut(core, "/")
	addr, _, _ = strings.Cut(addr, "%")
	groups := 0
	for rest, more := addr, true; more; groups++ {
		var grp string
		grp, rest, more = strings.Cut(rest, ":")
		if !more && strings.IndexByte(grp, '.') >= 0 {
			groups++ // an IPv4 tail fills two groups
			continue
		}
		if _, ok := hexGroup(grp); !ok && grp != "" {
			return false
		}
	}
	return groups == 8 || strings.Contains(addr, "::")
}

// halfHashedIPv6 reports whether a token that is no IPv6 address still
// names a public /48: its first three colon groups are 1–4 hex digits,
// form a /48 inside 2000::/3 and outside the documentation prefix, and
// a later group is neither empty nor 1–4 hex digits. That is what the
// basic method leaves of an address it hashed one group of
// ("2620:0:861:ed1a::1" becomes "2620:0:861:x0ec0f8fb30cd1a::1"). A
// large community ("2914:100:200") has no such later group, a MAC
// address or a time no such /48.
func halfHashedIPv6(core string) bool {
	var g [3]uint16
	rest := core
	for i := range g {
		grp, after, more := strings.Cut(rest, ":")
		v, ok := hexGroup(grp)
		if !ok || !more {
			return false
		}
		g[i], rest = v, after
	}
	if g[0]&0xE000 != 0x2000 || g[0] == 0x2001 && g[1] == 0x0db8 {
		return false
	}
	for {
		grp, after, more := strings.Cut(rest, ":")
		if _, ok := hexGroup(grp); !ok && grp != "" {
			return true
		}
		if !more {
			return false
		}
		rest = after
	}
}

// hexGroup parses an IPv6 group of 1–4 hex digits.
func hexGroup(s string) (uint16, bool) {
	// Checked first: ParseUint's error allocates.
	if len(s) == 0 || len(s) > 4 || strings.Trim(s, "0123456789abcdefABCDEF") != "" {
		return 0, false
	}
	v, _ := strconv.ParseUint(s, 16, 16)
	return uint16(v), true
}
