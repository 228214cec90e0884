package anonymizer

import (
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"confanon/internal/ipanon"
	"confanon/internal/rulepack"
	"confanon/internal/token"
)

// refLeakScan is the leak scan written the plain way — strings.Split
// into lines, token.Fields into words — against which LeakReport's
// in-place walk is checked. It reads the same recorder and report rules
// and records no hits.
func refLeakScan(a *Anonymizer, post string) []Leak {
	s := a.sess
	var leaks []Leak
	for i, line := range strings.Split(post, "\n") {
		words, _ := token.Fields(line)
		for wi, w := range words {
			switch {
			case s.seenASNs[w]:
				fp := wi > 0 && innocuousIntContext[words[wi-1]]
				leaks = append(leaks, Leak{Line: i + 1, Text: line, Tok: w, Kind: "asn", LikelyFalsePositive: fp})
			case s.seenWords[w]:
				leaks = append(leaks, Leak{Line: i + 1, Text: line, Tok: w, Kind: "word"})
			default:
				if v, ok := token.ParseIPv4(w); ok && !ipanon.IsSpecial(v) && s.seenIPs[v] {
					fp := s.ipOutputs(len(s.seenIPs))[v]
					leaks = append(leaks, Leak{Line: i + 1, Text: line, Tok: w, Kind: "ip", LikelyFalsePositive: fp})
					continue
				}
				if strings.Count(w, ":") >= 2 && refPublicIPv6(w) {
					leaks = append(leaks, Leak{Line: i + 1, Text: line, Tok: w, Kind: "ip6"})
					continue
				}
				for _, rr := range a.rules.report {
					if rr.m.MatchToken(w) {
						leaks = append(leaks, Leak{Line: i + 1, Text: line, Tok: w, Kind: "pack"})
						break
					}
				}
			}
		}
	}
	return leaks
}

// refPublicIPv6 is isPublicIPv6 written the plain way: a parsed address
// or prefix outside the special scopes, or a token that opens with a
// public /48 of 1–4 hex digit groups and has a later group that is
// neither empty nor 1–4 hex digits.
func refPublicIPv6(w string) bool {
	_, core, _ := token.TrimPunct(w)
	addr, err := netip.ParseAddr(core)
	if p, perr := netip.ParsePrefix(core); err != nil && perr == nil {
		addr, err = p.Addr(), nil
	}
	if err == nil {
		return addr.Is6() && !addr.IsLoopback() && !addr.IsUnspecified() &&
			!addr.IsLinkLocalUnicast() && !addr.IsMulticast() && !ipv6Doc.Contains(addr)
	}
	isGroup := func(g string) bool {
		_, err := strconv.ParseUint(g, 16, 16)
		return len(g) <= 4 && err == nil
	}
	groups := strings.Split(core, ":")
	if len(groups) < 4 || !isGroup(groups[0]) || !isGroup(groups[1]) || !isGroup(groups[2]) {
		return false
	}
	p48, err := netip.ParsePrefix(strings.Join(groups[:3], ":") + "::/48")
	if err != nil || !netip.MustParsePrefix("2000::/3").Overlaps(p48) || ipv6Doc.Overlaps(p48) {
		return false
	}
	for _, g := range groups[3:] {
		if g != "" && !isGroup(g) {
			return true
		}
	}
	return false
}

// TestHalfHashedIPv6IsALeak: an IPv6 address the basic method hashed
// one group of still names its owner's /48, so the gate flags what is
// left as a confirmed ip6 leak; the same shape under the documentation
// prefix, or outside 2000::/3, names no network.
func TestHalfHashedIPv6IsALeak(t *testing.T) {
	a := New(Options{Salt: []byte("x")})
	post := a.AnonymizeText("ntp server 2620:0:861:ed1a::1\n")
	leaks := a.LeakReport(post)
	if len(leaks) != 1 || leaks[0].Kind != "ip6" || leaks[0].LikelyFalsePositive ||
		!strings.HasPrefix(leaks[0].Tok, "2620:0:861:x") {
		t.Fatalf("LeakReport(%q) = %v, want one confirmed ip6 leak", post, leaks)
	}
	for w, want := range map[string]bool{
		"2620:0:861:x0ec0f8fb30cd1a::1":  true,
		"2620:0:861::x0ec0f8fb30cd1a;":   true,
		"3fff:1:2:3:4:zz":                true,
		"2001:db8:0:x0ec0f8fb30cd1a::1":  false,
		"fe80:0:861:x0ec0f8fb30cd1a::1":  false,
		"2620:0:x861:ed1a::1":            false,
		"2914:100:200":                   false,
		"2914:100:200:":                  false,
		"aa:bb:cc:dd:ee:ff":              false,
		"2620:0:861:ed1a::1.2.3.4":       true,
		"2620:0:861:ed1a:0:0:1.2.3.4/64": true,
	} {
		if got := isPublicIPv6(w); got != want || refPublicIPv6(w) != want {
			t.Errorf("isPublicIPv6(%q) = %v, reference %v, want %v", w, got, refPublicIPv6(w), want)
		}
	}
}

// TestColonTokensDoNotAllocate: the gate reads MAC addresses, times and
// communities, colon-separated tokens that are no IPv6 address, without
// allocating, while an IPv6 address of each form still parses and a
// half-hashed one is still a leak.
func TestColonTokensDoNotAllocate(t *testing.T) {
	a := New(Options{Salt: []byte("x")})
	for _, line := range []string{
		"mac aa:bb:cc:dd:ee:ff\n",
		"clock 12:34:56\n",
		"set community 701:100\n",
		"set large-community 2914:100:200\n",
		"mac-address 0011:2233:4455:6677:8899:aabb:ccdd\n",
	} {
		if n := testing.AllocsPerRun(20, func() { a.LeakReport(line) }); n != 0 {
			t.Errorf("LeakReport(%q): %.1f allocs, want 0", line, n)
		}
	}
	for w, want := range map[string]bool{
		"2620:0:861:1::1/64":            true,
		"::ffff:12.1.2.3":               true,
		"2620:0:861:1:2:3:12.1.2.3":     true,
		"2620:0:861:1:2:3:4:5":          true,
		"2620:0:861:1:2:3:4:5:6":        false,
		"fe80::1%eth0":                  false,
		"2620:0:861:1:2:3:4:5/64":       true,
		"2620:0:861:x0ec0f8fb30cd1a::1": true,
		"aa:bb:cc:dd:ee:ff":             false,
	} {
		if got := isPublicIPv6(w); got != want || refPublicIPv6(w) != want {
			t.Errorf("isPublicIPv6(%q) = %v, reference %v, want %v", w, got, refPublicIPv6(w), want)
		}
	}
}

// leakScanFixture returns a worker whose Session has recorded an ASN, a
// hashed word and mapped addresses, with one pack report rule loaded,
// and an address that is both a recorded original and a mapping output
// (a likely false positive).
func leakScanFixture(t testing.TB) (*Anonymizer, string) {
	const pack = `{
		"schema": "confanon.rulepack/v1",
		"name": "leak-scan",
		"version": "0.1.0",
		"rules": [
			{"id": "ls-flag", "class": "leak", "scope": "report", "action": "flag",
			 "match": {"pattern": "pk[0-9]+"}, "doc": "x"}
		]
	}`
	p, err := rulepack.Parse([]byte(pack))
	if err != nil {
		t.Fatal(err)
	}
	a := New(Options{Salt: []byte("leak-scan"), RulePacks: []*rulepack.Pack{p}})
	a.AnonymizeText("hostname acme-core\nrouter bgp 701\n neighbor 12.0.0.1 remote-as 3356\n" +
		" network 12.1.0.0 mask 255.255.0.0\n")
	s := a.sess
	if !s.seenASNs["701"] || !s.seenIPs[0x0C000001] || len(s.seenWords) == 0 {
		t.Fatalf("fixture recorded too little: asns %v words %v ips %v", s.seenASNs, s.seenWords, s.seenIPs)
	}
	// Record a mapping output as an original too: a hit on it is
	// classified as a likely false positive.
	out := a.IPMapping()[0].Out
	s.seenIPs[out] = true
	return a, token.FormatIPv4(out)
}

// FuzzLeakScan checks that LeakReport's in-place scan reports exactly
// the leaks — line, text, token, kind, false-positive flag — of the
// Split/Fields reference, on any text.
func FuzzLeakScan(f *testing.F) {
	a, fpIP := leakScanFixture(f)
	var word string
	for w := range a.sess.seenWords {
		word = w
		break
	}
	for _, s := range []string{
		"",
		"\n",
		"\n\n\n",
		"router bgp 701",
		"router bgp 701\n",
		"router bgp 701\n\n",
		"\trouter\t\tbgp   701  \n",
		" area 701\n ospf 701 area 701\nremote-as 701 701",
		"hostname " + word + "\n  description " + word + "\t" + word,
		"neighbor 12.0.0.1 remote-as 3356\n" + fpIP + " " + fpIP + "\n",
		"ip address 255.255.255.0 127.0.0.1 224.0.0.5",
		"ipv6 address 2620:0:861:1::1/64\nipv6 route 2620:0:861::/48 fe80::1 2001:db8::1",
		"ntp server 2620:0:861:x0ec0f8fb30cd1a::1\nset large-community 2914:100:200 2001:db8:0:x1::1",
		"description pk42 pk pk7x\n\tpk9\t",
		"701\t\t\n  \n\t" + word + "\n12.0.0.1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, post string) {
		got := a.LeakReport(post)
		want := refLeakScan(a, post)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("LeakReport(%q):\n got %v\nwant %v", post, got, want)
		}
	})
}

// TestLeakScanSeesEveryKind pins that the fuzz fixture reaches every
// kind of finding, so FuzzLeakScan's seeds exercise each branch.
func TestLeakScanSeesEveryKind(t *testing.T) {
	a, fpIP := leakScanFixture(t)
	post := "ospf 701\nremote-as 701\n12.0.0.1 " + fpIP + "\n2620:0:861:1::1/64 pk42\n"
	for w := range a.sess.seenWords {
		post += "description " + w + "\n"
		break
	}
	kinds := map[string]bool{}
	fps := 0
	for _, l := range a.LeakReport(post) {
		kinds[l.Kind] = true
		if l.LikelyFalsePositive {
			fps++
		}
	}
	for _, k := range []string{"asn", "word", "ip", "ip6", "pack"} {
		if !kinds[k] {
			t.Errorf("no %s finding in %q", k, post)
		}
	}
	if fps != 2 {
		t.Errorf("%d likely false positives, want 2 (ospf 701, %s)", fps, fpIP)
	}
}
