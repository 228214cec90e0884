package anonymizer

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"confanon/internal/ipanon"
	"confanon/internal/netgen"
)

// The two inputs on which a prescan with its own line loop pinned
// something other than what the rewrite maps.
const (
	// blockRepro: a JunOS comment between "router rip" and its classful
	// network. The rewrite drops the comment without leaving the block,
	// so the network maps as a /8; a second block tracker that took
	// "#" for a block pinned no /8, and the network published as
	// 58.38.0.0 under salt "x".
	blockRepro = "interface Ethernet0\n ip address 12.1.2.3 255.255.255.0\nrouter rip\n# note\n network 12.0.0.0\n"
	// bannerRepro: a prefix in a banner body, which the rewrite strips.
	// Pinned anyway, it moved the interface address from 58.39.234.2
	// to 56.1.234.2 under salt "x".
	bannerRepro = "banner motd ^C\nNOC 12.0.0.0/8\n^C\n"
	ifaceRepro  = "interface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n"
)

// pinCorpus returns the golden inputs, a netgen network of each kind
// (classful IGPs, wildcard ACLs, slash prefix-lists) and the repros.
func pinCorpus(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	ins, err := filepath.Glob("../../testdata/golden/in/*")
	if err != nil || len(ins) == 0 {
		t.Fatalf("golden inputs: %v %v", ins, err)
	}
	for _, path := range ins {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = string(b)
	}
	for _, kind := range []netgen.Kind{netgen.Backbone, netgen.Enterprise} {
		n := netgen.Generate(netgen.Params{Seed: 30, Kind: kind, Routers: 6})
		for name, text := range n.RenderAll() {
			files[fmt.Sprintf("%d/%s", kind, name)] = text
		}
	}
	files["block-repro"] = blockRepro
	files["banner-repro"] = bannerRepro + ifaceRepro
	return files
}

// sameMultiset reports whether a and b hold the same pairs, counted.
func sameMultiset(a, b []ipanon.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	n := map[ipanon.Pair]int{}
	for _, p := range a {
		n[p]++
	}
	for _, p := range b {
		if n[p]--; n[p] < 0 {
			return false
		}
	}
	return true
}

// TestPinsAreMappedPrefixes: subnet-address preservation (§4.3) holds
// only if the pins are exactly the prefixes the rewrite maps. For every
// file of pinCorpus, a census's pins are its call log's prefix calls as
// a multiset, shortest first.
func TestPinsAreMappedPrefixes(t *testing.T) {
	s := Compile(Options{Salt: []byte("pins")}).NewSession()
	mapped := 0
	for name, text := range pinCorpus(t) {
		tm := s.Census(name, text)
		if tm.err != nil {
			t.Fatalf("%s: %v", name, tm.err)
		}
		pins, log := &recordingSink{}, &recordingSink{}
		tm.Pins().Replay(pins)
		tm.Calls().Replay(log)
		var prefixes []ipanon.Pair
		for _, r := range log.recs {
			if r.Out != 0 { // a prefix call
				prefixes = append(prefixes, r)
			}
		}
		mapped += len(prefixes)
		if !sameMultiset(pins.recs, prefixes) {
			t.Errorf("%s: pins %v, prefix calls %v", name, pins.recs, prefixes)
		}
		if !sort.SliceIsSorted(pins.recs, func(i, j int) bool { return pins.recs[i].Out < pins.recs[j].Out }) {
			t.Errorf("%s: pins not shortest first: %v", name, pins.recs)
		}
	}
	if mapped == 0 {
		t.Fatal("no prefix was mapped: the corpus exercises nothing")
	}
}

// TestPinReprosGolden pins the two repros' published bytes under salt
// "x": the classful network keeps its /8's zero tail, and the banner's
// prefix, which is never published, leaves the interface address where
// it is without the banner.
func TestPinReprosGolden(t *testing.T) {
	anon := func(text string) string { return New(Options{Salt: []byte("x")}).AnonymizeText(text) }
	if got, want := anon(blockRepro), "interface Ethernet0\n ip address 56.1.234.2 255.255.255.0\nrouter rip\n network 56.0.0.0\n"; got != want {
		t.Errorf("block repro:\n got %q\nwant %q", got, want)
	}
	want := "interface Ethernet0\n ip address 58.39.234.2 255.255.255.0\n"
	if got := anon(ifaceRepro); got != want {
		t.Errorf("interface alone:\n got %q\nwant %q", got, want)
	}
	if got := anon(bannerRepro + ifaceRepro); got != "banner motd ^C\n^\n"+want {
		t.Errorf("interface after the banner:\n got %q\nwant %q", got, "banner motd ^C\n^\n"+want)
	}
}

// unpublished are lines the rewrite drops or hashes without mapping a
// word of them, each holding prefixes a second line loop could pin.
var unpublished = struct{ top, junos, desc []string }{
	top: []string{
		"banner motd ^C", "NOC 12.0.0.0/8 and 10.0.0.0 255.0.0.0", "net 12.1.0.0 mask 255.255.0.0", "^C",
		"! 12.1.0.0 255.255.0.0 via 12.0.0.0/8",
	},
	junos: []string{"# 10.1.0.0/16 via 12.1.2.0/24", "/* 12.128.0.0/9 */"},
	desc:  []string{" description uplink 12.1.2.0/24 to 12.0.0.0 255.0.0.0"},
}

// splice inserts the unpublished lines into a file outside its banner
// bodies: the IOS block before the first line and before every tenth
// top-level line (where a new block starts anyway), the JunOS comments
// after every seventh line, and the description after every interface
// line.
func splice(text string) string {
	var out []string
	var delim byte // the delimiter of the banner body in flight, or 0
	for i, line := range SplitLines(text) {
		top := line != "" && line[0] != ' ' && line[0] != '\t' && line[0] != '}'
		if delim == 0 && (i == 0 || i%10 == 0 && top) {
			out = append(out, unpublished.top...)
		}
		out = append(out, line)
		switch {
		case delim != 0:
			if strings.IndexByte(line, delim) >= 0 {
				delim = 0
			}
			continue
		case strings.HasPrefix(line, "banner "):
			if f := strings.Fields(line); len(f) >= 3 && strings.Count(line, f[2][:1]) < 2 {
				delim = f[2][0]
			}
			continue
		case strings.HasPrefix(line, "interface "):
			out = append(out, unpublished.desc...)
		}
		if i%7 == 6 {
			out = append(out, unpublished.junos...)
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// TestUnpublishedTextDoesNotShapeMapping: banner bodies, descriptions,
// "!" comments and JunOS comments that hold prefixes change no other
// line of a file's output. Every line the original file publishes is
// published, in order, byte for byte, by the file with those lines
// spliced in, and the spliced lines add only what they publish
// themselves (the banner's delimiters, the hashed descriptions).
func TestUnpublishedTextDoesNotShapeMapping(t *testing.T) {
	kept := func(lines []string) int {
		out := New(Options{Salt: []byte("splice")}).AnonymizeText(strings.Join(lines, "\n") + "\n")
		if out == "\n" { // the output of a file that publishes nothing
			return 0
		}
		return len(SplitLines(out))
	}
	keptTop, keptJunos, keptDesc := kept(unpublished.top), kept(unpublished.junos), kept(append([]string{"interface x"}, unpublished.desc...))-1
	if keptJunos != 0 || keptTop != 2 {
		t.Fatalf("spliced block publishes %d top and %d JunOS lines, want 2 and 0", keptTop, keptJunos)
	}
	for name, text := range pinCorpus(t) {
		if strings.HasSuffix(name, "repro") {
			continue
		}
		spliced := splice(text)
		want := SplitLines(New(Options{Salt: []byte("splice")}).AnonymizeText(text))
		got := SplitLines(New(Options{Salt: []byte("splice")}).AnonymizeText(spliced))
		tops := strings.Count(spliced, unpublished.top[0]+"\n") - strings.Count(text, unpublished.top[0]+"\n")
		descs := strings.Count(spliced, unpublished.desc[0]+"\n") - strings.Count(text, unpublished.desc[0]+"\n")
		if extra := len(got) - len(want); extra != tops*keptTop+descs*keptDesc {
			t.Errorf("%s: spliced output has %d more lines, want %d", name, extra, tops*keptTop+descs*keptDesc)
		}
		k := 0
		for _, line := range got {
			if k < len(want) && line == want[k] {
				k++
			}
		}
		if k < len(want) {
			t.Errorf("%s: published line %d %q is missing or changed once unpublished prefixes are spliced in", name, k+1, want[k])
		}
	}
}
