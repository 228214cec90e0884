package confanon

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"confanon/internal/netgen"
	"confanon/internal/store"
	"confanon/internal/token"
)

// FuzzIncrementalMatchesFull checks the incremental driver against the
// full one: after a random edit script over a corpus with a recorded
// file cache and ledger, a strict IncrementalCorpusContext run must
// publish the outputs, statuses and quarantine set of a
// ParallelCorpusContext run on the same restored state, at one and two
// workers. The corpus is two small netgen networks (IOS and JunOS) plus
// an IOS file with a multi-line banner and a JunOS file with a /* */
// block, so edits land inside both. The script is read three bytes per
// edit (operation, file, line): replace, insert or delete a line, append
// to a file, drop a file or add one, or poison a file; frag is the text
// an edit writes. A poison edit copies a word of the recorded output of
// the file after the chosen one (line picks the word) into the chosen
// file, in a line that records it — `router bgp W` for a number, an
// interface address for a dotted quad, `hostname W` otherwise — so the
// value the recorder gains can sit in a cache-served file's output.
// Besides the quarantine set, the leaks of every quarantined file must
// equal the full run's.
// Trailing script bytes that make no whole edit select the regexp
// style: a script whose length is not a multiple of three runs under
// Style: Minimal, against a recording made under that style. Every seed
// runs under both styles.
func FuzzIncrementalMatchesFull(f *testing.F) {
	v1 := netgen.Generate(netgen.Params{Seed: 11, Kind: netgen.Enterprise, Routers: 2}).RenderAll()
	maps.Copy(v1, netgen.Generate(netgen.Params{Seed: 12, Kind: netgen.Backbone, Routers: 2, JunOS: true}).RenderAll())
	v1["a-banner-confg"] = "hostname edge1\nbanner motd ^\nNOC 12.1.1.1 owns 12.0.0.0/8\ncall x4411\n^\n" +
		"interface Ethernet0\n ip address 12.1.2.1 255.255.255.0\nrouter bgp 701\n neighbor 12.1.2.2 remote-as 1239\nend\n"
	v1["b-junos"] = "system {\n host-name edge2;\n}\n/* maintained by noc 12.3.4.5\n   second line 12.3.4.6\n*/\n" +
		"interfaces {\n ge-0/0/0 {\n  unit 0 {\n   family inet {\n    address 12.0.0.1/30;\n   }\n  }\n }\n}\n" +
		"protocols {\n bgp {\n  group peers {\n   neighbor 12.0.0.2;\n   peer-as 701;\n  }\n }\n}\n"
	salt := []byte("fuzz-incremental")
	ctx := context.Background()

	// One recording per IP scheme and regexp style: the cache (through
	// its codec) and the ledger's state, which every run below restores.
	type recording struct {
		cache *CorpusCache
		state store.State
		out   map[string]string
	}
	type scheme struct {
		stateless bool
		style     Style
	}
	recs := make(map[scheme]recording)
	for _, sc := range []scheme{{false, Alternation}, {true, Alternation}, {false, Minimal}, {true, Minimal}} {
		var rec recording
		dir := f.TempDir()
		ms, err := OpenMappingStore(dir, salt)
		if err != nil {
			f.Fatal(err)
		}
		a := New(Options{Salt: salt, Strict: true, StatelessIP: sc.stateless, Style: sc.style})
		if err := a.UseStore(ms); err != nil {
			f.Fatal(err)
		}
		res, cache, err := a.IncrementalCorpusContext(ctx, v1, nil, 2)
		if err != nil || !res.Ok() {
			f.Fatalf("recording run: err=%v failed=%v quarantined=%v", err, res.Failed(), res.Quarantined())
		}
		rec.out = res.Outputs()
		if err := a.SyncStore(); err != nil {
			f.Fatal(err)
		}
		if err := ms.Close(); err != nil {
			f.Fatal(err)
		}
		blob, err := cache.Encode()
		if err == nil {
			rec.cache, err = DecodeCorpusCache(blob)
		}
		if err != nil {
			f.Fatal(err)
		}
		led, err := store.Open(dir, store.SaltFingerprint(salt))
		if err != nil {
			f.Fatal(err)
		}
		rec.state = led.State()
		if err := led.Close(); err != nil {
			f.Fatal(err)
		}
		recs[sc] = rec
	}

	// Files sort as a-banner-confg (0), two netgen routers, b-junos (3),
	// then the other netgen routers, cr2.nyc…-confg last (9); line 2 of
	// the first (counting from 0) sits in the banner, line 4 of b-junos in
	// the block comment. The poison seeds append to cr2.nyc words 14 (the
	// permuted ASN), 10 (a mapped address) and 1 (the hashed hostname) of
	// a-banner-confg's output, and to a-banner-confg the dotted hostname
	// of the router after it.
	for _, seed := range []struct {
		script []byte
		frag   string
	}{
		{[]byte{0, 0, 2}, "NOC 12.9.9.9 moved"},
		{[]byte{1, 0, 3}, "^"},
		{[]byte{2, 0, 4}, ""},
		{[]byte{0, 3, 4}, " edited 12.3.4.7 */ interfaces {"},
		{[]byte{1, 3, 3}, "/* opened 12.8.8.8"},
		{[]byte{2, 3, 5}, ""},
		{[]byte{3, 2, 0}, "interface Loopback9\n ip address 10.99.0.1 255.255.255.255"},
		{[]byte{4, 3, 0, 5, 0, 0}, "hostname new\n ip address 12.1.2.9 255.255.255.0"},
		{[]byte{0, 4, 9, 1, 5, 20, 2, 2, 7}, " neighbor 12.7.7.7 remote-as 65001"},
		{[]byte{0, 2, 1, 0, 2, 1}, "banner exec #12.4.4.4"},
		{[]byte{6, 9, 14}, ""},
		{[]byte{6, 9, 10}, ""},
		{[]byte{6, 9, 1}, ""},
		{[]byte{6, 0, 3}, ""},
	} {
		minimal := append(slices.Clip(seed.script), 0)
		for _, stateless := range []bool{false, true} {
			f.Add(seed.script, seed.frag, stateless)
			f.Add(minimal, seed.frag, stateless)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte, frag string, stateless bool) {
		sc := scheme{stateless, Alternation}
		if len(script)%3 != 0 {
			sc.style = Minimal
		}
		rec := recs[sc]
		v2 := maps.Clone(v1)
		for e := 0; len(script) >= 3 && e < 8; e++ {
			op, fi, li := script[0]%7, int(script[1]), int(script[2])
			script = script[3:]
			names := sortedNames(v2)
			if len(names) == 0 {
				break
			}
			name := names[fi%len(names)]
			lines := strings.Split(v2[name], "\n")
			k := li % len(lines)
			switch op {
			case 0:
				lines[k] = frag
			case 1:
				lines = slices.Insert(lines, k, frag)
			case 2:
				lines = slices.Delete(lines, k, k+1)
			case 3:
				lines = append(lines, frag)
			case 4:
				delete(v2, name)
				continue
			case 5:
				v2[fmt.Sprintf("zz-added-%d", e)] = frag
				continue
			case 6:
				words := strings.Fields(rec.out[names[(fi+1)%len(names)]])
				if len(words) == 0 {
					continue
				}
				w := words[li%len(words)]
				poison := "hostname " + w
				if token.IsInteger(w) {
					poison = "router bgp " + w
				} else if _, ok := token.ParseIPv4(w); ok {
					poison = "interface Loopback7\n ip address " + w + " 255.255.255.255"
				}
				lines = append(lines, poison)
			}
			v2[name] = strings.Join(lines, "\n")
		}

		opts := Options{Salt: salt, Strict: true, StatelessIP: stateless, Style: sc.style}
		for _, workers := range []int{1, 2} {
			full := New(opts)
			inc := New(opts)
			if err := full.sess.RestoreState(rec.state); err != nil {
				t.Fatal(err)
			}
			if err := inc.sess.RestoreState(rec.state); err != nil {
				t.Fatal(err)
			}
			want, err := full.ParallelCorpusContext(ctx, v2, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := inc.IncrementalCorpusContext(ctx, v2, rec.cache, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Files) != len(want.Files) {
				t.Fatalf("workers=%d: %d files, full run %d", workers, len(got.Files), len(want.Files))
			}
			for name, w := range want.Files {
				g := got.Files[name]
				if g.Status != w.Status {
					t.Fatalf("workers=%d: %s: status %v, full run %v", workers, name, g.Status, w.Status)
				}
				if g.Text != w.Text {
					t.Fatalf("workers=%d: %s: output differs from the full run:\n got %q\nwant %q", workers, name, g.Text, w.Text)
				}
				if !reflect.DeepEqual(g.Leaks, w.Leaks) {
					t.Fatalf("workers=%d: %s: leaks %v, full run %v", workers, name, g.Leaks, w.Leaks)
				}
			}
			if !reflect.DeepEqual(got.Quarantined(), want.Quarantined()) {
				t.Fatalf("workers=%d: quarantined %v, full run %v", workers, got.Quarantined(), want.Quarantined())
			}
		}
	})
}
