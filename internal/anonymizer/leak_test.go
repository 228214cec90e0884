package anonymizer

import (
	"reflect"
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
				if strings.Count(w, ":") >= 2 && isPublicIPv6(w) {
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
