package confanon

// Integration tests for rule packs at the facade level: parallel runs
// with user packs stay byte-identical to serial, strict leak gating
// cannot be weakened by loading a pack, and the MAC token class maps
// consistently while preserving the semantic bits.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"confanon/internal/netgen"
)

// packFromTOML parses a pack from TOML source, failing the test on any
// load or check error.
func packFromTOML(t *testing.T, src string) *RulePack {
	t.Helper()
	p, err := LoadRulePack([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRulePack(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPackParallelByteIdentity: with user packs loaded, a parallel run
// at any worker count must be byte-identical to the serial run — the
// census/replay machinery covers pack rules like any builtin.
func TestPackParallelByteIdentity(t *testing.T) {
	mac := loadExamplePack(t, "mac-addresses.json")
	eos := loadExamplePack(t, "arista-eos.toml")
	n := netgen.Generate(netgen.Params{Seed: 77, Kind: netgen.Backbone, Routers: 18})
	files := n.RenderAll()
	// Salt the corpus with pack-relevant tokens so the pack rules do
	// real work in every file.
	i := 0
	for name, text := range files {
		files[name] = text + fmt.Sprintf(
			"interface Ethernet9\n mac-address 00:1c:73:aa:bb:%02x\nsnmp-server contact eng%d@pop%d.example.net\nvrf instance TENANT-%d\n",
			i, i, i%4, i)
		i++
	}
	opts := Options{Salt: []byte(n.Salt), RulePacks: []*RulePack{mac, eos}}

	serial := mustCorpus(t, New(opts), files)
	for _, workers := range []int{1, 4, 8} {
		par, _ := mustParallel(t, opts, files, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d files, want %d", workers, len(par), len(serial))
		}
		for name := range serial {
			if par[name] != serial[name] {
				t.Errorf("workers=%d: %s differs from the serial run", workers, name)
			}
		}
	}
}

// TestPackCannotWeakenStrictGating: a config whose output leaks an ASN
// is quarantined under strict — and stays quarantined with unrelated
// packs loaded. The only way a pack clears the gate is by actually
// anonymizing the leaking token.
func TestPackCannotWeakenStrictGating(t *testing.T) {
	leaky := map[string]string{
		"r1.conf": "router bgp 7018\nweird vendor-command peer-as 7018\n",
	}
	quarantined := func(opts Options) (bool, string) {
		t.Helper()
		prog, err := CompileChecked(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.NewSession().CorpusContext(t.Context(), leaky)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Quarantined()) == 1, res.Outputs()["r1.conf"]
	}

	base := Options{Salt: []byte("gate"), Strict: true}
	if q, _ := quarantined(base); !q {
		t.Fatal("baseline: the leaking config was not quarantined")
	}

	// Unrelated packs (the shipped examples) must not clear the gate.
	withExamples := base
	withExamples.RulePacks = []*RulePack{
		loadExamplePack(t, "mac-addresses.json"),
		loadExamplePack(t, "arista-eos.toml"),
	}
	if q, _ := quarantined(withExamples); !q {
		t.Error("loading unrelated packs cleared strict gating")
	}

	// A pack that actually anonymizes the leaking line clears the gate
	// the honest way: the ASN is gone from the output.
	closing := base
	closing.RulePacks = []*RulePack{packFromTOML(t, `
schema = "confanon.rulepack/v1"
name = "close-the-leak"
version = "0.1.0"
[[rules]]
id = "weird-vendor-command"
class = "asn"
scope = "line"
keys = ["weird"]
action = "digits"
doc = "hash the numbers of the unrecognized vendor command"
`)}
	q, out := quarantined(closing)
	if q {
		t.Error("a pack anonymizing the leak should clear the gate")
	}
	if strings.Contains(out, "7018") {
		t.Errorf("pack cleared the gate but the ASN survives:\n%s", out)
	}
}

// TestMACMappingConsistencyAndBits: one MAC maps to one image under a
// salt regardless of separator style, the mapping is not identity, and
// the I/G and U/L bits of the first octet survive.
func TestMACMappingConsistencyAndBits(t *testing.T) {
	mac := loadExamplePack(t, "mac-addresses.json")
	prog, err := CompileChecked(Options{Salt: []byte("macs"), RulePacks: []*RulePack{mac}})
	if err != nil {
		t.Fatal(err)
	}
	in := strings.Join([]string{
		"interface Ethernet1",
		" mac-address 00:1c:73:ab:cd:01", // universal, unicast
		" mac-address 00-1C-73-AB-CD-01", // same MAC, other separators
		" mac-address 001c.73ab.cd01",    // same MAC, dotted
		" mac-address 01:00:5e:00:00:fb", // I/G set (multicast)
		" mac-address 02:aa:bb:cc:dd:ee", // U/L set (locally administered)
		"",
	}, "\n")
	out := prog.NewSession().File(in)

	// Line counts are preserved here, so collect the mapped MACs by the
	// input lines' positions (the "mac-address" keyword itself is not
	// pass-listed and comes out hashed — the value is what matters).
	inLines, outLines := strings.Split(in, "\n"), strings.Split(out, "\n")
	if len(outLines) != len(inLines) {
		t.Fatalf("line count changed: %d -> %d\n%s", len(inLines), len(outLines), out)
	}
	var mapped []string
	for i, line := range inLines {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "mac-address" {
			of := strings.Fields(outLines[i])
			if len(of) != 2 {
				t.Fatalf("line %d reshaped: %q -> %q", i+1, line, outLines[i])
			}
			mapped = append(mapped, of[1])
		}
	}
	if len(mapped) != 5 {
		t.Fatalf("expected 5 mac-address lines, got %d:\n%s", len(mapped), out)
	}
	digits := func(s string) string {
		return strings.ToLower(strings.Map(func(r rune) rune {
			if r == ':' || r == '-' || r == '.' {
				return -1
			}
			return r
		}, s))
	}
	if digits(mapped[0]) != digits(mapped[1]) || digits(mapped[0]) != digits(mapped[2]) {
		t.Errorf("one MAC mapped inconsistently across separator styles: %v", mapped[:3])
	}
	if digits(mapped[0]) == "001c73abcd01" {
		t.Error("MAC mapped to itself")
	}
	if !strings.Contains(mapped[1], "-") || !strings.Contains(mapped[2], ".") {
		t.Errorf("separator styles not preserved: %v", mapped[:3])
	}
	firstOctet := func(s string) byte {
		v, err := strconv.ParseUint(digits(s)[:2], 16, 8)
		if err != nil {
			t.Fatalf("bad mapped MAC %q", s)
		}
		return byte(v)
	}
	if firstOctet(mapped[3])&0x01 == 0 {
		t.Errorf("multicast bit lost: %s", mapped[3])
	}
	if firstOctet(mapped[4])&0x01 != 0 || firstOctet(mapped[4])&0x02 == 0 {
		t.Errorf("U/L and I/G bits not preserved: %s", mapped[4])
	}
}

// TestPackMergeConflicts: the compile-time merge rejects combinations
// the documents cannot individually catch.
func TestPackMergeConflicts(t *testing.T) {
	mk := func(name, ruleID string) *RulePack {
		return packFromTOML(t, `
schema = "confanon.rulepack/v1"
name = "`+name+`"
version = "0.1.0"
[[rules]]
id = "`+ruleID+`"
class = "misc"
scope = "line"
keys = ["frobnicate"]
action = "hash"
doc = "test rule"
`)
	}
	// Two packs declaring the same rule ID cannot load together.
	if _, err := CompileChecked(Options{Salt: []byte("x"),
		RulePacks: []*RulePack{mk("pack-a", "shared-rule"), mk("pack-b", "shared-rule")}}); err == nil {
		t.Error("cross-pack duplicate rule id compiled")
	}
	// Distinct IDs load fine, even with identical keys.
	if _, err := CompileChecked(Options{Salt: []byte("x"),
		RulePacks: []*RulePack{mk("pack-a", "rule-a"), mk("pack-b", "rule-b")}}); err != nil {
		t.Errorf("distinct rule ids failed to compile: %v", err)
	}
	// A user pack may not reference builtin stages.
	p, err := LoadRulePack([]byte(`{
		"schema": "confanon.rulepack/v1",
		"name": "sneaky",
		"version": "0.1.0",
		"rules": [{"id": "steal-banner", "class": "comment", "scope": "structural", "builtin": "banner-body", "doc": "x"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRulePack(p); err == nil {
		t.Error("user pack referencing a builtin stage passed CheckPack")
	}
	if _, err := CompileChecked(Options{Salt: []byte("x"), RulePacks: []*RulePack{p}}); err == nil {
		t.Error("user pack referencing a builtin stage compiled")
	}
	// Colliding with a builtin rule id is rejected too.
	hostile, err := LoadRulePack([]byte(`
schema = "confanon.rulepack/v1"
name = "hostile"
version = "0.1.0"
[[rules]]
id = "hostname"
class = "name"
scope = "line"
keys = ["hostname"]
action = "hash"
doc = "tries to shadow the builtin hostname rule"
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRulePack(hostile); err == nil {
		t.Error("user pack shadowing the builtin hostname rule passed CheckPack")
	}
}
