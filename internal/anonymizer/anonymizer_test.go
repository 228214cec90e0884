package anonymizer

import (
	"maps"
	"strconv"
	"strings"
	"testing"

	"confanon/internal/asn"
	"confanon/internal/config"
	"confanon/internal/cregex"
	"confanon/internal/ipanon"
	"confanon/internal/token"
)

// figure1 is the paper's worked example.
const figure1 = `hostname cr1.lax.foo.com
!
banner motd ^C
FooNet contact xxx@foo.com
Access strictly prohibited!
^C
!
interface Ethernet0
 description Foo Corp's LAX Main St offices
 ip address 1.1.1.1 255.255.255.0
!
interface Serial1/0.5 point-to-point
 description cr1.sfo-serial3/0.8
 ip address 2.2.129.2 255.255.255.252
!
router bgp 1111
 redistribute rip
 neighbor 2.2.2.2 remote-as 701
 neighbor 2.2.2.2 route-map UUNET-import in
 neighbor 2.2.2.2 route-map UUNET-export out
!
route-map UUNET-import deny 10
 match as-path 50
 match community 100
!
route-map UUNET-import permit 20
!
route-map UUNET-export permit 10
 match ip address 143
 set community 701:7100
!
access-list 143 permit ip 1.1.1.0 0.0.0.255 any
ip community-list 100 permit 701:7[1-5]..
ip as-path access-list 50 permit (_1239_|_70[2-5]_)
!
router rip
 network 1.0.0.0
end
`

func newTestAnonymizer() *Anonymizer {
	return New(Options{Salt: []byte("figure1-salt")})
}

func TestFigure1EndToEnd(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText(figure1)

	// (1) Comments gone: no trace of the identifying free text.
	for _, leak := range []string{"Foo", "foo", "FooNet", "LAX", "lax", "Main", "offices",
		"contact", "prohibited", "xxx@foo.com", "sfo"} {
		if strings.Contains(out, leak) {
			t.Errorf("identity leak %q survived:\n%s", leak, out)
		}
	}
	// (2) The owner's public ASN is gone, and so is the peer's.
	for _, line := range strings.Split(out, "\n") {
		for _, w := range strings.Fields(line) {
			if w == "1111" || w == "701" || w == "1239" {
				t.Errorf("ASN %s survived in line %q", w, line)
			}
		}
	}
	// (3) Netmasks and wildcards are unchanged.
	for _, keep := range []string{"255.255.255.0", "255.255.255.252", "0.0.0.255"} {
		if !strings.Contains(out, keep) {
			t.Errorf("special address %s was altered:\n%s", keep, out)
		}
	}
	// (4) Public addresses are changed.
	for _, gone := range []string{"1.1.1.1", "2.2.2.2", "2.2.129.2", "1.1.1.0", "1.0.0.0"} {
		if strings.Contains(out, gone+" ") || strings.Contains(out, gone+"\n") {
			t.Errorf("address %s survived:\n%s", gone, out)
		}
	}
	// (5) Structure: keywords and the config skeleton survive.
	for _, keep := range []string{"interface Ethernet0", "interface Serial1/0.5 point-to-point",
		"router bgp", "router rip", "redistribute rip", "remote-as",
		"route-map", "access-list 143 permit ip", "ip community-list 100 permit",
		"ip as-path access-list 50 permit", "banner motd"} {
		if !strings.Contains(out, keep) {
			t.Errorf("structure %q destroyed:\n%s", keep, out)
		}
	}
}

func TestFigure1ReferentialIntegrity(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText(figure1)
	c := config.Parse(out)
	// The "uses" relationship between the BGP neighbor and the policy
	// definitions must survive: the neighbor's in/out route-map names
	// must name route maps that exist.
	if c.BGP == nil || len(c.BGP.Neighbors) != 1 {
		t.Fatalf("BGP neighbors lost: %+v", c.BGP)
	}
	nb := c.BGP.Neighbors[0]
	if nb.RouteMapIn == "" || c.RouteMap(nb.RouteMapIn) == nil {
		t.Errorf("route-map in reference broken: %q not defined", nb.RouteMapIn)
	}
	if nb.RouteMapOut == "" || c.RouteMap(nb.RouteMapOut) == nil {
		t.Errorf("route-map out reference broken: %q not defined", nb.RouteMapOut)
	}
	if nb.RouteMapIn == "UUNET-import" {
		t.Error("route-map name not anonymized")
	}
	// The import map keeps its two clauses with their match structure.
	imp := c.RouteMap(nb.RouteMapIn)
	if len(imp.Clauses) != 2 || len(imp.Clauses[0].Matches) != 2 {
		t.Errorf("route-map structure lost: %+v", imp)
	}
}

func TestFigure1SubnetContainment(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText(figure1)
	c := config.Parse(out)
	// The RIP network (classful 1.0.0.0/8) must still contain the
	// Ethernet0 interface address: the "subnet contains" relationship.
	if c.RIP == nil || len(c.RIP.Networks) != 1 {
		t.Fatalf("RIP lost: %+v", c.RIP)
	}
	ripNet := c.RIP.Networks[0]
	e0 := c.Interface("Ethernet0")
	if e0 == nil || !e0.HasAddress {
		t.Fatal("Ethernet0 lost")
	}
	if ripNet&config.LenToMask(8) != e0.Address.Addr&config.LenToMask(8) {
		t.Errorf("subnet-contains broken: rip %s vs interface %s",
			token.FormatIPv4(ripNet), token.FormatIPv4(e0.Address.Addr))
	}
	// Classful: the class A network must still be class A, and the RIP
	// network must still be a subnet address (host part zero).
	if ipanon.Class(ripNet) != 'A' {
		t.Errorf("class not preserved: %s", token.FormatIPv4(ripNet))
	}
	if ripNet&^config.LenToMask(8) != 0 {
		t.Errorf("classful network %s not a subnet address", token.FormatIPv4(ripNet))
	}
	// The ACL 143 source must still be the Ethernet0 subnet.
	acl := c.AccessList(143)
	if acl == nil || len(acl.Entries) != 1 {
		t.Fatal("ACL lost")
	}
	if acl.Entries[0].Src != e0.Address.Addr&config.LenToMask(24) {
		t.Errorf("ACL/interface subnet relationship broken: %s vs %s",
			token.FormatIPv4(acl.Entries[0].Src), token.FormatIPv4(e0.Address.Addr))
	}
}

func TestFigure1RegexpRewrite(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText(figure1)
	c := config.Parse(out)
	al := c.ASPathList(50)
	if al == nil || len(al.Entries) != 1 {
		t.Fatal("as-path list lost")
	}
	re, err := cregex.Parse(al.Entries[0].Regex)
	if err != nil {
		t.Fatalf("rewritten as-path regexp unparseable: %q: %v", al.Entries[0].Regex, err)
	}
	// The rewritten regexp accepts exactly the permuted originals.
	orig := []uint32{1239, 702, 703, 704, 705}
	for _, v := range orig {
		if !re.MatchASN(a.MapASN(v)) {
			t.Errorf("rewritten regexp rejects perm(%d)=%d: %q", v, a.MapASN(v), al.Entries[0].Regex)
		}
	}
	if got := len(re.Language()); got != len(orig) {
		t.Errorf("rewritten language has %d values, want %d: %q", got, len(orig), al.Entries[0].Regex)
	}
	// Community list regexp rewritten and parseable.
	cl := c.CommunityList(100)
	if cl == nil || len(cl.Entries) != 1 {
		t.Fatal("community list lost")
	}
	cre, err := cregex.Parse(cl.Entries[0].Expr)
	if err != nil {
		t.Fatalf("rewritten community regexp unparseable: %q: %v", cl.Entries[0].Expr, err)
	}
	// 701:7100 was in the original language; its image must be accepted.
	mappedASN := a.MapASN(701)
	vp := asn.NewValuePerm([]byte("figure1-salt"))
	img := strconv.Itoa(int(mappedASN)) + ":" + strconv.Itoa(int(vp.Map(7100)))
	if !cre.MatchToken(img) {
		t.Errorf("rewritten community regexp %q rejects image %s", cl.Entries[0].Expr, img)
	}
	if cre.MatchToken("701:7100") && mappedASN != 701 {
		t.Errorf("rewritten community regexp still accepts original: %q", cl.Entries[0].Expr)
	}
	// The set community in the export map must be the same image as the
	// community list (consistency between literal and regexp handling).
	exp := findRouteMapWithSet(c)
	if exp == nil {
		t.Fatal("export route-map lost")
	}
	setArg := exp.Clauses[0].Sets[0].Args[0]
	if setArg != img {
		t.Errorf("set community %s inconsistent with community-list image %s", setArg, img)
	}
}

func findRouteMapWithSet(c *config.Config) *config.RouteMap {
	for _, rm := range c.RouteMaps {
		for _, cl := range rm.Clauses {
			if len(cl.Sets) > 0 {
				return rm
			}
		}
	}
	return nil
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a1 := New(Options{Salt: []byte("s")})
	a2 := New(Options{Salt: []byte("s")})
	o1 := a1.AnonymizeText(figure1)
	o2 := a2.AnonymizeText(figure1)
	if o1 != o2 {
		t.Error("same salt produced different outputs")
	}
	a3 := New(Options{Salt: []byte("different")})
	if a3.AnonymizeText(figure1) == o1 {
		t.Error("different salt produced identical output")
	}
}

func TestPrivateASNUnchanged(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText("router bgp 65001\n neighbor 10.0.0.1 remote-as 65100\n")
	if !strings.Contains(out, "router bgp 65001") {
		t.Errorf("private ASN changed: %s", out)
	}
	if !strings.Contains(out, "remote-as 65100") {
		t.Errorf("private peer ASN changed: %s", out)
	}
}

func TestLoopbackAndMulticastUnchanged(t *testing.T) {
	a := newTestAnonymizer()
	in := "ip name-server 127.0.0.1\naccess-list 10 permit 224.0.0.5\n"
	out := a.AnonymizeText(in)
	if !strings.Contains(out, "127.0.0.1") || !strings.Contains(out, "224.0.0.5") {
		t.Errorf("special addresses changed:\n%s", out)
	}
}

func TestDialerStringHashed(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText("dialer string 5558675309\n")
	if strings.Contains(out, "5558675309") {
		t.Errorf("phone number survived: %s", out)
	}
	// The replacement is still a digit string of the same length.
	fields := strings.Fields(out)
	repl := fields[len(fields)-1]
	if len(repl) != 10 || !token.IsInteger(repl) {
		t.Errorf("dialer replacement not a 10-digit string: %q", repl)
	}
}

func TestSNMPAndCredentialsHashed(t *testing.T) {
	a := newTestAnonymizer()
	in := "snmp-server community s3cr3tstring RO\nusername admin password 7 05080F1C2243\nenable secret 5 $1$abcd\n"
	out := a.AnonymizeText(in)
	for _, leak := range []string{"s3cr3tstring", "admin", "05080F1C2243", "$1$abcd"} {
		if strings.Contains(out, leak) {
			t.Errorf("credential %q survived:\n%s", leak, out)
		}
	}
	if !strings.Contains(out, "snmp-server community") || !strings.Contains(out, "RO") {
		t.Errorf("snmp structure destroyed:\n%s", out)
	}
}

func TestHostnameHashedEvenIfPassListed(t *testing.T) {
	a := newTestAnonymizer()
	// "main" and "street" are in the guide vocabulary, but a hostname is
	// identity-bearing by position.
	out := a.AnonymizeText("hostname main.street.net\n")
	if strings.Contains(out, "main") || strings.Contains(out, "street") {
		t.Errorf("pass-listed hostname words survived: %s", out)
	}
	if !strings.HasPrefix(out, "hostname ") {
		t.Errorf("hostname keyword lost: %s", out)
	}
}

func TestInterfaceTypePreserved(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText("interface FastEthernet0/1\n ip address 10.1.1.1 255.255.255.0\n")
	if !strings.Contains(out, "interface FastEthernet0/1") {
		t.Errorf("interface type destroyed (segmentation rules failed): %s", out)
	}
}

func TestSimpleIntegersKept(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText("interface Serial0\n bandwidth 1544\n ip ospf cost 100\n")
	if !strings.Contains(out, "bandwidth 1544") || !strings.Contains(out, "cost 100") {
		t.Errorf("simple integers were anonymized:\n%s", out)
	}
}

func TestConfederationRules(t *testing.T) {
	a := newTestAnonymizer()
	in := "router bgp 65010\n bgp confederation identifier 701\n bgp confederation peers 65011 65012\n"
	out := a.AnonymizeText(in)
	if strings.Contains(out, "identifier 701") {
		t.Errorf("confed identifier not mapped: %s", out)
	}
	if !strings.Contains(out, "peers 65011 65012") {
		t.Errorf("private confed peers changed: %s", out)
	}
}

func TestOldFormatCommunity(t *testing.T) {
	a := newTestAnonymizer()
	// 45940844 == 701<<16 | 7148 in old format.
	out := a.AnonymizeText("route-map m permit 10\n set community 45940844\n")
	if strings.Contains(out, "45940844") {
		t.Errorf("old-format community survived: %s", out)
	}
	// Result must still be an integer (structure preserved).
	c := config.Parse(out)
	if len(c.RouteMaps) != 1 || len(c.RouteMaps[0].Clauses[0].Sets) != 1 {
		t.Fatalf("route map lost: %s", out)
	}
	arg := c.RouteMaps[0].Clauses[0].Sets[0].Args[0]
	if !token.IsInteger(arg) {
		t.Errorf("old-format community became non-integer %q", arg)
	}
}

func TestWellKnownCommunitiesKept(t *testing.T) {
	a := newTestAnonymizer()
	out := a.AnonymizeText("route-map m permit 10\n set community no-export additive\n")
	if !strings.Contains(out, "no-export additive") {
		t.Errorf("well-known communities changed: %s", out)
	}
}

func TestLeakIterationConverges(t *testing.T) {
	// An ASN lurking in an unrecognized command escapes the 12 ASN rules;
	// the leak report finds it, the operator adds a rule, and the next
	// pass closes the leak. This mirrors §6.1's iterative methodology.
	in := "router bgp 7018\nweird vendor-command peer-as 7018\n"
	a := newTestAnonymizer()
	out := a.AnonymizeText(in)
	leaks := a.LeakReport(out)
	if len(leaks) == 0 {
		t.Fatal("leak report missed the surviving ASN")
	}
	a.AddSensitiveToken("7018")
	out2 := a.AnonymizeText(in)
	if leaks2 := a.LeakReport(out2); len(leaks2) != 0 {
		t.Errorf("leak persists after added rule: %v\n%s", leaks2, out2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := newTestAnonymizer()
	a.AnonymizeText(figure1)
	s := a.Stats()
	if s.Files != 1 || s.Lines == 0 || s.WordsTotal == 0 {
		t.Errorf("basic counters wrong: %+v", s)
	}
	if s.CommentLinesRemoved < 4 { // two descriptions + two banner lines
		t.Errorf("CommentLinesRemoved = %d", s.CommentLinesRemoved)
	}
	if s.ASNsMapped == 0 || s.IPsMapped == 0 || s.CommunitiesMapped == 0 {
		t.Errorf("mapping counters wrong: %+v", s)
	}
	if s.RegexpsRewritten < 2 {
		t.Errorf("RegexpsRewritten = %d", s.RegexpsRewritten)
	}
	if s.Hits(RuleBGPProcess) != 1 || s.Hits(RuleNeighborRemoteAS) != 1 {
		t.Errorf("rule hits wrong: %+v", s.RuleHits())
	}
}

func TestKeepCommentsOption(t *testing.T) {
	a := New(Options{Salt: []byte("s"), KeepComments: true})
	out := a.AnonymizeText("! some comment\ninterface Ethernet0\n description branch office\n")
	// Lines are kept (emptied of their own content is acceptable), so
	// the line count should not shrink.
	if len(strings.Split(out, "\n")) < 3 {
		t.Errorf("KeepComments dropped lines:\n%q", out)
	}
}

func TestMinimalStyleProducesCompactRegexps(t *testing.T) {
	a := New(Options{Salt: []byte("s"), Style: cregex.Minimal})
	out := a.AnonymizeText("ip as-path access-list 1 permit _70[1-5]_\n")
	c := config.Parse(out)
	al := c.ASPathList(1)
	if al == nil {
		t.Fatal("list lost")
	}
	if _, err := cregex.Parse(al.Entries[0].Regex); err != nil {
		t.Errorf("minimal-style regexp unparseable: %q", al.Entries[0].Regex)
	}
}

func TestAnonymizeIdempotentStructure(t *testing.T) {
	// Anonymizing the anonymized output must not change its structure
	// (all sensitive material is already gone; hashes re-hash, but the
	// shape is stable).
	a := newTestAnonymizer()
	out := a.AnonymizeText(figure1)
	out2 := a.AnonymizeText(out)
	c1, c2 := config.Parse(out), config.Parse(out2)
	if len(c1.Interfaces) != len(c2.Interfaces) || len(c1.RouteMaps) != len(c2.RouteMaps) {
		t.Error("second anonymization changed structure")
	}
}

func TestNamePositionsForceHashed(t *testing.T) {
	// "level" and "import" are pass-listed words, but a route-map called
	// LEVEL3-import names a peer; identifier positions hash regardless.
	a := newTestAnonymizer()
	in := `router bgp 65000
 neighbor 12.0.0.1 remote-as 3356
 neighbor 12.0.0.1 route-map LEVEL3-import in
!
route-map LEVEL3-import permit 10
 match ip address prefix-list LEVEL3-nets
!
ip prefix-list LEVEL3-nets seq 5 permit 4.0.0.0/9
class-map match-any LEVEL3-gold
policy-map LEVEL3-qos
 class LEVEL3-gold
service-policy output LEVEL3-qos
`
	out := a.AnonymizeText(in)
	if strings.Contains(out, "LEVEL3") || strings.Contains(strings.ToLower(out), "level3") {
		t.Errorf("peer identity survived in names:\n%s", out)
	}
	// Referential integrity: definition and reference share the hash.
	c := config.Parse(out)
	nb := c.BGP.Neighbors[0]
	if nb.RouteMapIn == "" || c.RouteMap(nb.RouteMapIn) == nil {
		t.Errorf("route-map reference broken after name hashing:\n%s", out)
	}
}

func TestPeerGroupNames(t *testing.T) {
	a := newTestAnonymizer()
	in := `router bgp 65000
 neighbor UUNET-peers peer-group
 neighbor UUNET-peers remote-as 701
 neighbor 12.0.0.9 peer-group UUNET-peers
`
	out := a.AnonymizeText(in)
	if strings.Contains(out, "UUNET") {
		t.Errorf("peer-group name survived:\n%s", out)
	}
	// All three references hash to the same identifier.
	lines := strings.Split(out, "\n")
	var names []string
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 2 && f[0] == "neighbor" && !strings.Contains(f[1], ".") {
			names = append(names, f[1])
		}
		if len(f) >= 4 && f[2] == "peer-group" {
			names = append(names, f[3])
		}
	}
	if len(names) < 3 {
		t.Fatalf("peer-group references lost:\n%s", out)
	}
	for _, n := range names[1:] {
		if n != names[0] {
			t.Errorf("peer-group references diverge: %v", names)
		}
	}
}

func TestRemainingASNRules(t *testing.T) {
	a := newTestAnonymizer()
	in := `router ospf 5
 redistribute bgp 701
!
route-map m permit 10
 set as-path prepend 701 701 65010
 set extcommunity rt 701:99
!
router bgp 65010
 neighbor 10.0.0.1 local-as 1239
`
	out := a.AnonymizeText(in)
	for _, gone := range []string{"bgp 701", "prepend 701", "rt 701:", "local-as 1239"} {
		if strings.Contains(out, gone) {
			t.Errorf("%q survived:\n%s", gone, out)
		}
	}
	// Private ASN in the prepend stays; structure keywords stay.
	if !strings.Contains(out, "65010") {
		t.Errorf("private ASN changed:\n%s", out)
	}
	for _, keep := range []string{"redistribute bgp ", "set as-path prepend ", "set extcommunity rt ", "local-as "} {
		if !strings.Contains(out, keep) {
			t.Errorf("structure %q destroyed:\n%s", keep, out)
		}
	}
	s := a.Stats()
	for _, r := range []RuleID{RuleRedistributeBGP, RuleASPathPrepend, RuleSetExtCommunity, RuleNeighborLocalAS} {
		if s.Hits(r) == 0 {
			t.Errorf("rule %s never fired", r)
		}
	}
}

// TestAllRulesListed: the inventory opens with the paper's 28 rules, by
// §4.2's taxonomy, and every entry after them is a name-position
// extension; no rule is listed twice.
func TestAllRulesListed(t *testing.T) {
	want := map[Class]int{ClassSegmentation: 2, ClassComment: 3, ClassMisc: 4, ClassASN: 12,
		ClassIP: 5, ClassCommunity: 1, ClassLeak: 1}
	got := map[Class]int{}
	for _, info := range ruleInfos[:28] {
		got[info.Class]++
	}
	if !maps.Equal(got, want) {
		t.Errorf("the first 28 rules count %v by class, the paper reports %v", got, want)
	}
	for _, info := range ruleInfos[28:] {
		if info.Class != ClassName {
			t.Errorf("extension rule %s has class %s", info.ID, info.Class)
		}
	}
	seen := map[RuleID]bool{}
	for _, info := range ruleInfos {
		if seen[info.ID] {
			t.Errorf("duplicate rule %s", info.ID)
		}
		seen[info.ID] = true
	}
}
