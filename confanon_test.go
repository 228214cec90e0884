package confanon

import (
	"context"
	"strings"
	"testing"

	"confanon/internal/netgen"
)

// mustCorpus runs files through a.CorpusContext and fails the test unless
// every file came out clean; it returns the outputs.
func mustCorpus(t testing.TB, a *Anonymizer, files map[string]string) map[string]string {
	t.Helper()
	res, err := a.CorpusContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("corpus not clean: failed %v, quarantined %v", res.Failed(), res.Quarantined())
	}
	return res.Outputs()
}

// mustParallel runs files through ParallelCorpusContext on a fresh
// Session and fails the test unless every file came out clean; it
// returns the outputs and the merged Stats.
func mustParallel(t testing.TB, opts Options, files map[string]string, workers int) (map[string]string, Stats) {
	t.Helper()
	res, err := ParallelCorpusContext(context.Background(), opts, files, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("workers=%d: corpus not clean: failed %v, quarantined %v", workers, res.Failed(), res.Quarantined())
	}
	return res.Outputs(), res.Stats
}

func TestFacadeCorpusAndValidate(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 900, Kind: netgen.Backbone, Routers: 20,
		UseASPathAlternation: true, UseCommunityRegexps: true})
	pre := n.RenderAll()
	a := New(Options{Salt: []byte(n.Salt)})
	post := mustCorpus(t, a, pre)
	if len(post) != len(pre) {
		t.Fatalf("file count changed: %d -> %d", len(pre), len(post))
	}
	rep := Validate(pre, post)
	if !rep.OK() {
		t.Errorf("validation failed:\nsuite1: %v\nsuite2 pre:  %s\nsuite2 post: %s",
			rep.Suite1, rep.Suite2.PreSummary, rep.Suite2.PostSummary)
	}
	// No identity content survives.
	for name, text := range post {
		if strings.Contains(text, n.Params.Name) {
			t.Errorf("company name leaked in %s", name)
		}
	}
	if a.Stats().Files != int64(len(pre)) {
		t.Errorf("stats files = %d", a.Stats().Files)
	}
}

func TestFacadeLeaksAndAddRule(t *testing.T) {
	a := New(Options{Salt: []byte("s")})
	files := map[string]string{
		"r1": "router bgp 7018\nodd command with 7018 tail\n",
	}
	post := mustCorpus(t, a, files)
	leaks := a.Leaks(post)
	if len(leaks) == 0 {
		t.Fatal("no leaks reported for a raw ASN")
	}
	a.AddRule(leaks[0].Tok)
	post2 := mustCorpus(t, a, files)
	if l2 := a.Leaks(post2); len(l2) != 0 {
		t.Errorf("leak persisted after AddRule: %v", l2)
	}
}

func TestFacadeFileEqualsCorpusSingle(t *testing.T) {
	text := "interface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n"
	a1 := New(Options{Salt: []byte("k")})
	a2 := New(Options{Salt: []byte("k")})
	if a1.File(text) != mustCorpus(t, a2, map[string]string{"f": text})["f"] {
		t.Error("File and single-file CorpusContext disagree")
	}
}

func TestParseConfigExposed(t *testing.T) {
	c := ParseConfig("hostname r1\nend\n")
	if c.Hostname != "r1" {
		t.Errorf("ParseConfig: %+v", c)
	}
}

func TestMinimalStyleFacade(t *testing.T) {
	a := New(Options{Salt: []byte("k"), Style: Minimal})
	out := a.File("ip as-path access-list 9 permit _70[1-9]_\n")
	if strings.Contains(out, "_70[1-9]_") {
		t.Errorf("regexp not rewritten: %s", out)
	}
}

func TestDeclareRelationPreserved(t *testing.T) {
	a := New(Options{Salt: []byte("rel")})
	a.DeclareRelation(Relation{ASN: 701, Prefix: 0x0C000000, Len: 8}) // AS701 owns 12.0.0.0/8
	// Anonymize a config that references both mechanisms.
	out := a.File("router bgp 65010\n neighbor 10.0.0.1 remote-as 701\nip route 12.0.0.0 255.0.0.0 Null0\n")
	rels := a.Relations()
	if len(rels) != 1 {
		t.Fatalf("relations = %v", rels)
	}
	// The released relation's ASN must equal the ASN as it appears in
	// the anonymized config, and the prefix must equal the mapped route.
	c := ParseConfig(out)
	if c.BGP.Neighbors[0].RemoteAS != rels[0].ASN {
		t.Errorf("relation ASN %d != config ASN %d", rels[0].ASN, c.BGP.Neighbors[0].RemoteAS)
	}
	if len(c.StaticRoutes) != 1 || c.StaticRoutes[0].Dest != rels[0].Prefix {
		t.Errorf("relation prefix %x != config route %x", rels[0].Prefix, c.StaticRoutes[0].Dest)
	}
	if rels[0].ASN == 701 || rels[0].Prefix == 0x0C000000 {
		t.Error("relation not anonymized")
	}
	if rels[0].String() == "" {
		t.Error("empty relation rendering")
	}
}

func TestRenameFile(t *testing.T) {
	a := New(Options{Salt: []byte("rn")})
	n1 := a.RenameFile("cr1.lax.foo.com-confg")
	n2 := a.RenameFile("cr1.lax.foo.com-confg")
	n3 := a.RenameFile("cr2.sfo.foo.com-confg")
	if n1 != n2 {
		t.Error("rename not deterministic")
	}
	if n1 == n3 {
		t.Error("distinct names collide")
	}
	if !strings.HasSuffix(n1, "-confg") {
		t.Errorf("suffix lost: %q", n1)
	}
	if strings.Contains(n1, "foo") || strings.Contains(n1, "lax") {
		t.Errorf("identity survived in name: %q", n1)
	}
}

func TestMappingPersistenceAcrossRuns(t *testing.T) {
	// First run anonymizes one file; a second run loads the snapshot and
	// must map shared addresses identically while staying consistent for
	// new ones.
	opts := Options{Salt: []byte("persist")}
	a1 := New(opts)
	out1 := a1.File("interface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n")
	snap := a1.SaveMapping()
	if len(snap) == 0 {
		t.Fatal("empty snapshot from tree scheme")
	}

	a2 := New(opts)
	if err := a2.LoadMapping(snap); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	out2 := a2.File("interface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n")
	if out1 != out2 {
		t.Errorf("reloaded run diverged:\n%s\nvs\n%s", out1, out2)
	}
	// A new address in the same /24 must share the mapped prefix.
	out3 := a2.File("ip name-server 12.1.2.99\n")
	c1 := ParseConfig(out1)
	c3 := ParseConfig(out3)
	if len(c3.NameServers) != 1 {
		t.Fatalf("parse: %+v", c3)
	}
	if c1.Interfaces[0].Address.Addr>>8 != c3.NameServers[0]>>8 {
		t.Error("prefix consistency lost across snapshot reload")
	}

	// Garbage snapshots are rejected; stateless scheme snapshots are empty.
	if err := New(opts).LoadMapping([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if snap := New(Options{Salt: []byte("x"), StatelessIP: true}).SaveMapping(); len(snap) != 0 {
		t.Error("stateless scheme produced a snapshot")
	}
}

func TestMixedDialectCorpus(t *testing.T) {
	// One owner with both IOS and JunOS routers: a single CorpusContext call
	// anonymizes both dialects consistently, and validation handles the
	// mixed parse automatically.
	ios := netgen.Generate(netgen.Params{Seed: 1500, Kind: netgen.Backbone, Routers: 8})
	jun := netgen.Generate(netgen.Params{Seed: 1500, Kind: netgen.Backbone, Routers: 8, JunOS: true})
	files := map[string]string{}
	for name, text := range ios.RenderAll() {
		files[name] = text
	}
	for name, text := range jun.RenderAll() {
		files[name] = text
	}
	a := New(Options{Salt: []byte("mixed")})
	post := mustCorpus(t, a, files)
	rep := Validate(files, post)
	if !rep.OK() {
		t.Errorf("mixed-dialect validation failed:\nsuite1: %v\nsuite2 pre: %s post: %s",
			rep.Suite1, rep.Suite2.PreSummary, rep.Suite2.PostSummary)
	}
	// Addresses shared between the dialect renderings of the same
	// network map identically (same salt, same corpus).
	for name, text := range post {
		if strings.Contains(text, ios.Params.Name) {
			t.Errorf("identity leaked in %s", name)
		}
	}
}
