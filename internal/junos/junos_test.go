package junos_test

import (
	"strings"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/config"
	"confanon/internal/junos"
	"confanon/internal/netgen"
	"confanon/internal/validate"
)

func TestIfaceName(t *testing.T) {
	cases := []struct{ ios, junos string }{
		{"Loopback0", "lo0"},
		{"Ethernet0", "fe-0/0/0"},
		{"FastEthernet0/1", "fe-0/0/1"},
		{"GigabitEthernet0/0/3", "ge-0/0/3"},
		{"Serial1/0.5", "so-0/1/0"},
		{"POS0/2/0.4", "so-0/2/0"},
	}
	for _, c := range cases {
		if got := junos.IfaceName(c.ios); got != c.junos {
			t.Errorf("junos.IfaceName(%s) = %s, want %s", c.ios, got, c.junos)
		}
	}
}

func TestLooksLikeJunOS(t *testing.T) {
	if !junos.LooksLikeJunOS("system {\n    host-name r1;\n}\n") {
		t.Error("JunOS text not detected")
	}
	if junos.LooksLikeJunOS("hostname r1\ninterface Ethernet0\n") {
		t.Error("IOS text misdetected as JunOS")
	}
}

// renderNetwork renders every router of a generated network as JunOS.
func renderNetwork(n *netgen.Network) map[string]string {
	out := make(map[string]string, len(n.Routers))
	for _, r := range n.Routers {
		out[r.Config.Hostname+"-junos"] = junos.Render(r.Config)
	}
	return out
}

func TestRenderParseRoundTrip(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 301, Kind: netgen.Backbone, Routers: 12,
		UseASPathAlternation: true, UseCommunityRegexps: true})
	for _, r := range n.Routers {
		text := junos.Render(r.Config)
		c := junos.Parse(text)
		if c.Hostname != r.Config.Hostname {
			t.Errorf("hostname lost: %q vs %q", c.Hostname, r.Config.Hostname)
		}
		if len(c.Interfaces) != len(r.Config.Interfaces) {
			t.Errorf("%s: interfaces %d -> %d", c.Hostname, len(r.Config.Interfaces), len(c.Interfaces))
		}
		// Addresses survive with their prefix lengths.
		for i, ifc := range r.Config.Interfaces {
			if !ifc.HasAddress {
				continue
			}
			got := c.Interfaces[i]
			if !got.HasAddress || got.Address != ifc.Address {
				t.Errorf("%s/%s: address changed: %+v vs %+v",
					c.Hostname, ifc.Name, got.Address, ifc.Address)
			}
		}
		if (c.BGP == nil) != (r.Config.BGP == nil) {
			t.Errorf("%s: BGP presence changed", c.Hostname)
		}
		if c.BGP != nil {
			if c.BGP.ASN != r.Config.BGP.ASN {
				t.Errorf("%s: ASN %d -> %d", c.Hostname, r.Config.BGP.ASN, c.BGP.ASN)
			}
			if len(c.BGP.Neighbors) != len(r.Config.BGP.Neighbors) {
				t.Errorf("%s: neighbors %d -> %d", c.Hostname,
					len(r.Config.BGP.Neighbors), len(c.BGP.Neighbors))
			}
		}
		if len(c.OSPF) != len(r.Config.OSPF) {
			t.Errorf("%s: OSPF %d -> %d", c.Hostname, len(r.Config.OSPF), len(c.OSPF))
		}
		if len(c.RouteMaps) != len(r.Config.RouteMaps) {
			t.Errorf("%s: policies %d -> %d", c.Hostname, len(r.Config.RouteMaps), len(c.RouteMaps))
		}
	}
}

func TestAnonymizeJunOSEndToEnd(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 302, Kind: netgen.Backbone, Routers: 14,
		UseASPathAlternation: true, UseCommunityRegexps: true})
	files := renderNetwork(n)
	a := anonymizer.New(anonymizer.Options{Salt: []byte(n.Salt)})
	post := make(map[string]string, len(files))
	for name, text := range files {
		if ferr := a.SafePrescan(name, text); ferr != nil {
			t.Fatal(ferr)
		}
	}
	joined := &strings.Builder{}
	for name, text := range files {
		out := a.AnonymizeText(text)
		post[name] = out
		joined.WriteString(out)
	}
	all := joined.String()

	// Identity gone: company name, ISP names, peer ASNs.
	if strings.Contains(all, n.Params.Name) {
		t.Error("company name survived in JunOS output")
	}
	for _, leak := range []string{"uunet", "sprint", "level3", "noc@"} {
		if strings.Contains(strings.ToLower(all), leak) {
			t.Errorf("identity %q survived in JunOS output", leak)
		}
	}
	for _, line := range strings.Split(all, "\n") {
		for _, w := range strings.Fields(line) {
			w = strings.Trim(w, ";\"")
			if w == "701" || w == "1239" || w == "7018" || w == "3356" {
				t.Errorf("public ASN %s survived: %q", w, line)
			}
		}
	}
	// Structure intact: braces balanced, keywords survive.
	if strings.Count(all, "{") != strings.Count(all, "}") {
		t.Error("brace balance destroyed")
	}
	for _, keep := range []string{"host-name", "family inet", "autonomous-system",
		"peer-as", "policy-statement", "as-path", "community"} {
		if !strings.Contains(all, keep) {
			t.Errorf("keyword %q destroyed", keep)
		}
	}
}

func TestJunOSValidationSuites(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 303, Kind: netgen.Backbone, Routers: 16,
		UseASPathAlternation: true})
	files := renderNetwork(n)
	a := anonymizer.New(anonymizer.Options{Salt: []byte(n.Salt)})
	for name, text := range files {
		if ferr := a.SafePrescan(name, text); ferr != nil {
			t.Fatal(ferr)
		}
	}
	var pre, post []*config.Config
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	for _, name := range names {
		pre = append(pre, junos.Parse(files[name]))
		post = append(post, junos.Parse(a.AnonymizeText(files[name])))
	}
	if diffs := validate.Suite1(pre, post); len(diffs) != 0 {
		t.Errorf("JunOS suite 1 failed:\n%s", strings.Join(diffs, "\n"))
	}
	res := validate.Suite2(pre, post)
	if !res.OK() {
		t.Errorf("JunOS suite 2 failed:\npre:  %s\npost: %s", res.PreSummary, res.PostSummary)
	}
}

func TestJunOSCommentsStripped(t *testing.T) {
	a := anonymizer.New(anonymizer.Options{Salt: []byte("j")})
	in := `/* managed by foocorp engineering */
system {
    host-name cr1.foocorp.net;
    # contact noc@foocorp.net
    login {
        message "foocorp property - keep out";
    }
}
/* multi
line secret
comment */
`
	out := a.AnonymizeText(in)
	for _, leak := range []string{"foocorp", "managed", "contact", "keep out", "secret"} {
		if strings.Contains(out, leak) {
			t.Errorf("JunOS comment leak %q:\n%s", leak, out)
		}
	}
	if !strings.Contains(out, "host-name ") {
		t.Error("host-name statement destroyed")
	}
}

func TestJunOSASPathRegexRewritten(t *testing.T) {
	a := anonymizer.New(anonymizer.Options{Salt: []byte("j2")})
	in := "policy-options {\n    as-path blocked \"_70[1-5]_\";\n}\n"
	out := a.AnonymizeText(in)
	if strings.Contains(out, "70[1-5]") {
		t.Errorf("JunOS as-path regex survived: %s", out)
	}
	if !strings.Contains(out, "as-path ") || !strings.Contains(out, "\"") {
		t.Errorf("as-path statement shape destroyed: %s", out)
	}
	if strings.Contains(out, "blocked") {
		t.Errorf("as-path name survived: %s", out)
	}
}

func TestJunOSCredentialsHashed(t *testing.T) {
	a := anonymizer.New(anonymizer.Options{Salt: []byte("j3")})
	in := "            encrypted-password \"$1$secret$hash\";\n"
	out := a.AnonymizeText(in)
	if strings.Contains(out, "secret") {
		t.Errorf("credential survived: %s", out)
	}
}

func TestJunOSPrefixesMapped(t *testing.T) {
	a := anonymizer.New(anonymizer.Options{Salt: []byte("j4")})
	in := "                address 12.5.6.1/30;\n"
	out := a.AnonymizeText(in)
	if strings.Contains(out, "12.5.6.1") {
		t.Errorf("address survived: %s", out)
	}
	if !strings.Contains(out, "/30;") {
		t.Errorf("prefix length or semicolon lost: %s", out)
	}
}
