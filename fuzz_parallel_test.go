package confanon

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/netgen"
)

// FuzzParallelMatchesSerial checks the census → replay → fill pipeline
// against the serial reference: a strict ParallelCorpusContext run at
// one and at two workers must publish byte-identical outputs and
// quarantine and fail the same files as serialCorpus. The corpus is two netgen routers, one
// of them with the fuzzed fragment spliced in at a fuzzed line, plus the
// fragment as a file of its own. The seeds plant what the fill must get
// right: addresses and prefixes inside banners, descriptions and
// comments, control bytes next to addresses, and ^C banners. A file
// whose census cannot place an address in its output fails its fill, so
// a rule that reaches that path shows up here as a status divergence.
// The high bit of at selects the regexp style: set, the corpus (whose
// second router carries as-path and community lists) runs under
// Style: Minimal. Every seed runs under both styles.
func FuzzParallelMatchesSerial(f *testing.F) {
	gen := netgen.Generate(netgen.Params{Seed: 7, Kind: netgen.Enterprise, Routers: 2}).RenderAll()
	names := sortedNames(gen)
	base := anonymizer.SplitLines(gen[names[0]])
	other := gen[names[1]]

	for _, s := range []string{
		"interface Ethernet1\n description uplink to 12.1.2.3/30 via 12.1.2.2\n ip address 12.1.2.1 255.255.255.252",
		"banner motd ^C\nNOC 10.1.1.1 owns 12.0.0.0/8\n^C",
		"banner login ^C12.3.4.5^C",
		"banner exec #see 12.3.4.5 255.255.255.0#",
		"! comment 12.4.5.6 255.255.255.0 and 12.4.5.0/24",
		"\x00ip address 12.1.1.1\x01 255.255.255.0\x1b",
		" ip address 12.9.9.9\x00 255.255.255.255",
		"router bgp 701\n neighbor 12.1.1.2 remote-as 1239\n neighbor 12.1.1.2 route-map peer-in in",
		"router rip\n network 10.0.0.0\n network 12.0.0.0",
		"access-list 101 permit ip 12.5.0.0 0.0.255.255 host 12.5.1.1",
		"ip route 12.4.0.0 255.255.0.0 Null0\nip prefix-list pl seq 5 permit 12.4.0.0/16 le 24",
		"set interfaces ge-0/0/0 unit 0 family inet address 12.0.0.1/30;",
		"ntp server 12.7.7.7;\nsnmp-server host 12.7.7.8 public",
		"ntp server 2620:0:861:ed1a::1",
		"hostname 12.6.6.6\nip domain-name 12.6.6.0/24.example.com",
		"ip as-path access-list 60 permit ^701_(1239|3356)_[0-9]*$\nip community-list 70 permit 701:1[0-9]",
	} {
		f.Add(s, uint8(3))
		f.Add(s, uint8(0x80|3))
	}
	f.Fuzz(func(t *testing.T, frag string, at uint8) {
		lines := append([]string(nil), base...)
		k := int(at) % (len(lines) + 1)
		lines = append(lines[:k], append([]string{frag}, lines[k:]...)...)
		files := map[string]string{
			"a-confg": strings.Join(lines, "\n") + "\n",
			"b-confg": other,
			"c-confg": frag,
		}
		opts := Options{Salt: []byte("fuzz"), Strict: true}
		if at&0x80 != 0 {
			opts.Style = Minimal
		}
		serial := serialCorpus(New(opts), files)
		for _, workers := range []int{1, 2} {
			par, err := ParallelCorpusContext(context.Background(), opts, files, workers)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range serial.Files {
				got := par.Files[name]
				if got.Status != want.Status {
					t.Fatalf("%s: status %v at %d workers, %v serially", name, got.Status, workers, want.Status)
				}
				if got.Text != want.Text {
					t.Fatalf("%s: output differs at %d workers:\n got %q\nwant %q", name, workers, got.Text, want.Text)
				}
			}
			if !reflect.DeepEqual(par.Quarantined(), serial.Quarantined()) {
				t.Fatalf("quarantined %v at %d workers, %v serially", par.Quarantined(), workers, serial.Quarantined())
			}
		}
	})
}
