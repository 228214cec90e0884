package anonymizer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"confanon/internal/config"
	"confanon/internal/netgen"
	"confanon/internal/validate"
)

// TestAnonymizeNeverPanicsOnRandomText: the anonymizer must accept
// arbitrary bytes without panicking (operators feed it whatever their
// rancid archive contains).
func TestAnonymizeNeverPanicsOnRandomText(t *testing.T) {
	a := New(Options{Salt: []byte("fuzz")})
	f := func(text string) bool {
		_ = a.AnonymizeText(text)
		_ = a.LeakReport(text)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAnonymizeHandlesPathologicalLines: very long lines, deep banners,
// unterminated and one-line banners, binary garbage, huge numbers. No
// banner text may survive, and a case's output must contain each of its
// keep strings (a one-line banner must not swallow the lines after it).
func TestAnonymizeHandlesPathologicalLines(t *testing.T) {
	a := New(Options{Salt: []byte("p")})
	cases := []struct {
		in   string
		keep []string
	}{
		{in: strings.Repeat("x", 1<<16)},
		{in: "banner motd ^C\n" + strings.Repeat("secret corp name\n", 1000)}, // unterminated
		{in: "banner login #Authorized secret staff only#\nsnmp-server community public RO\nline vty 0 4\n",
			keep: []string{"banner login ##\n", "snmp-server community ", "line vty 0 4\n"}},
		{in: "router bgp 99999999999999999999\n"},
		{in: "neighbor 999.999.999.999 remote-as abc\n"},
		{in: "ip as-path access-list 1 permit " + strings.Repeat("(", 100) + "\n"},
		{in: "set community " + strings.Repeat("701:1 ", 500) + "\n"},
		{in: "\x00\x01\x02 binary \xff\xfe\n"},
		{in: "ip address 1.2.3.4\n"}, // missing mask
		{in: strings.Repeat("! c\n", 10000)},
	}
	for _, c := range cases {
		out := a.AnonymizeText(c.in)
		if strings.Contains(out, "secret") {
			t.Error("banner content leaked")
		}
		for _, k := range c.keep {
			if !strings.Contains(out, k) {
				t.Errorf("output lacks %q:\n%s", k, out)
			}
		}
	}
}

// TestMalformedRegexpFallsBackToHash: a syntactically invalid policy
// regexp must be hashed, not passed through.
func TestMalformedRegexpFallsBackToHash(t *testing.T) {
	a := New(Options{Salt: []byte("m")})
	out := a.AnonymizeText("ip as-path access-list 7 permit _70[1-\n")
	if strings.Contains(out, "70[1-") {
		t.Errorf("malformed regexp survived: %s", out)
	}
	if a.Stats().RegexpFallbacks != 1 {
		t.Errorf("fallback not counted: %+v", a.Stats())
	}
}

// TestRandomNetworksValidateProperty: for random seeds, the anonymized
// network always passes both validation suites — the paper's end-to-end
// property as a property test.
func TestRandomNetworksValidateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	for i := 0; i < 8; i++ {
		seed := rng.Int63()
		kind := netgen.Backbone
		if i%2 == 0 {
			kind = netgen.Enterprise
		}
		n := netgen.Generate(netgen.Params{
			Seed: seed, Kind: kind, Routers: 8 + rng.Intn(20),
			UseASPathAlternation: rng.Intn(2) == 0,
			UseCommunityRegexps:  rng.Intn(2) == 0,
			UsePublicASNRanges:   rng.Intn(4) == 0,
			UsePrivateASNRanges:  rng.Intn(4) == 0,
			UseCommunityRanges:   rng.Intn(4) == 0,
			Compartmentalized:    rng.Intn(2) == 0,
		})
		a := New(Options{Salt: []byte(n.Salt)})
		files := n.RenderAll()
		var pre, post []*config.Config
		for name, text := range files {
			if ferr := a.SafePrescan(name, text); ferr != nil {
				t.Fatalf("seed %d: %v", seed, ferr)
			}
		}
		for _, text := range files {
			pre = append(pre, config.Parse(text))
			post = append(post, config.Parse(a.AnonymizeText(text)))
		}
		if diffs := validate.Suite1(pre, post); len(diffs) != 0 {
			t.Errorf("seed %d: suite 1 failed: %v", seed, diffs)
		}
		if !validate.Suite2(pre, post).OK() {
			t.Errorf("seed %d: suite 2 failed", seed)
		}
	}
}

// TestEmptyAndWhitespaceInputs round out the edges.
func TestEmptyAndWhitespaceInputs(t *testing.T) {
	a := New(Options{Salt: []byte("e")})
	for _, in := range []string{"", "\n", "   \n\t\n", "!\n"} {
		out := a.AnonymizeText(in)
		if len(out) > len(in)+2 {
			t.Errorf("trivial input grew: %q -> %q", in, out)
		}
	}
}

// TestSaltIsolation: outputs under different salts share no hashed
// identifiers (cross-network unlinkability between different owners).
func TestSaltIsolation(t *testing.T) {
	in := "route-map SECRET-POLICY permit 10\n"
	a1 := New(Options{Salt: []byte("owner-a")})
	a2 := New(Options{Salt: []byte("owner-b")})
	o1, o2 := a1.AnonymizeText(in), a2.AnonymizeText(in)
	n1 := strings.Fields(o1)[1]
	n2 := strings.Fields(o2)[1]
	if n1 == n2 {
		t.Error("same hash under different salts: cross-owner linkable")
	}
}
