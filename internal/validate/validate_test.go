package validate

import (
	"strings"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/config"
	"confanon/internal/netgen"
)

// anonymizeNetwork renders, prescans, and anonymizes every router of a
// generated network, returning pre and post parsed configs.
func anonymizeNetwork(t *testing.T, n *netgen.Network) (pre, post []*config.Config) {
	t.Helper()
	a := anonymizer.New(anonymizer.Options{Salt: []byte(n.Salt)})
	texts := n.RenderAll()
	for name, text := range texts {
		if ferr := a.SafePrescan(name, text); ferr != nil {
			t.Fatal(ferr)
		}
	}
	postTexts := make(map[string]string, len(texts))
	for name, text := range texts {
		postTexts[name] = a.AnonymizeText(text)
	}
	return ParseAll(texts), ParseAll(postTexts)
}

func TestSuite1OnGeneratedBackbone(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 101, Kind: netgen.Backbone, Routers: 25})
	pre, post := anonymizeNetwork(t, n)
	if diffs := Suite1(pre, post); len(diffs) != 0 {
		t.Errorf("suite 1 failed:\n%s", strings.Join(diffs, "\n"))
	}
}

func TestSuite1OnGeneratedEnterprise(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 102, Kind: netgen.Enterprise, Routers: 18,
		Compartmentalized: true})
	pre, post := anonymizeNetwork(t, n)
	if diffs := Suite1(pre, post); len(diffs) != 0 {
		t.Errorf("suite 1 failed:\n%s", strings.Join(diffs, "\n"))
	}
}

func TestSuite2OnGeneratedBackbone(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 103, Kind: netgen.Backbone, Routers: 25,
		UseASPathAlternation: true, UseCommunityRegexps: true})
	pre, post := anonymizeNetwork(t, n)
	res := Suite2(pre, post)
	if !res.OK() {
		t.Errorf("suite 2 failed:\npre:  %s\npost: %s\n--- pre sig ---\n%s\n--- post sig ---\n%s",
			res.PreSummary, res.PostSummary, res.PreSignature, res.PostSignature)
	}
}

func TestSuite2OnGeneratedEnterprise(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 104, Kind: netgen.Enterprise, Routers: 15})
	pre, post := anonymizeNetwork(t, n)
	res := Suite2(pre, post)
	if !res.OK() {
		t.Errorf("suite 2 failed:\npre:  %s\npost: %s\n--- pre ---\n%s\n--- post ---\n%s",
			res.PreSummary, res.PostSummary, res.PreSignature, res.PostSignature)
	}
}

func TestSuite1DetectsDamage(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 105, Kind: netgen.Backbone, Routers: 12})
	texts := n.RenderAll()
	pre := ParseAll(texts)
	// Damage: drop one router's BGP block.
	for name, text := range texts {
		if strings.Contains(text, "router bgp") {
			lines := strings.Split(text, "\n")
			var kept []string
			skipping := false
			for _, l := range lines {
				if strings.HasPrefix(l, "router bgp") {
					skipping = true
					continue
				}
				if skipping && !strings.HasPrefix(l, " ") {
					skipping = false
				}
				if !skipping {
					kept = append(kept, l)
				}
			}
			texts[name] = strings.Join(kept, "\n")
			break
		}
	}
	post := ParseAll(texts)
	if diffs := Suite1(pre, post); len(diffs) == 0 {
		t.Error("suite 1 missed a deleted BGP process")
	}
}

func TestMeasureCounts(t *testing.T) {
	text := `hostname r1
interface Ethernet0
 ip address 10.1.1.1 255.255.255.0
!
interface Serial0
 ip address 10.2.0.1 255.255.255.252
 shutdown
!
router bgp 65000
 neighbor 10.9.9.9 remote-as 701
 neighbor 10.1.1.2 remote-as 65000
!
route-map m permit 10
!
access-list 10 permit 10.1.1.0 0.0.0.255
ip community-list 1 permit 701:100
ip as-path access-list 1 permit _701_
ip route 0.0.0.0 0.0.0.0 10.9.9.9
end
`
	ch := Measure([]*config.Config{config.Parse(text)})
	if ch.Routers != 1 || ch.BGPSpeakers != 1 || ch.Interfaces != 2 || ch.InterfacesUp != 1 {
		t.Errorf("basic counts wrong: %+v", ch)
	}
	if ch.EBGPSessions != 1 || ch.IBGPSessions != 1 {
		t.Errorf("session counts wrong: %+v", ch)
	}
	if ch.SubnetHist[24] != 1 || ch.SubnetHist[30] != 1 {
		t.Errorf("subnet histogram wrong: %+v", ch.SubnetHist)
	}
	if ch.RouteMaps != 1 || ch.ACLs != 1 || ch.CommunityLists != 1 || ch.ASPathLists != 1 || ch.StaticRoutes != 1 {
		t.Errorf("policy counts wrong: %+v", ch)
	}
}

func TestDiffSymmetricEmpty(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 106, Kind: netgen.Backbone, Routers: 10})
	cfgs := ParseAll(n.RenderAll())
	ch := Measure(cfgs)
	if diffs := ch.Diff(ch); len(diffs) != 0 {
		t.Errorf("self-diff not empty: %v", diffs)
	}
}

func TestCrossNetworkConsistentSalt(t *testing.T) {
	// Two anonymizers with the same salt map a shared address block
	// identically — the property that lets one owner anonymize several
	// networks consistently.
	a1 := anonymizer.New(anonymizer.Options{Salt: []byte("owner")})
	a2 := anonymizer.New(anonymizer.Options{Salt: []byte("owner")})
	in := "interface Ethernet0\n ip address 12.5.5.1 255.255.255.0\n"
	if a1.AnonymizeText(in) != a2.AnonymizeText(in) {
		t.Error("same-salt anonymizers diverged")
	}
}
