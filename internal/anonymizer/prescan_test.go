package anonymizer

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"confanon/internal/ipanon"
	"confanon/internal/netgen"
	"confanon/internal/token"
)

// TestPrescanPinsEveryMappedPrefix: subnet-address preservation (§4.3)
// holds only if the prescan pins every prefix the rewrite maps. For each
// golden input and each file of a netgen network (with classful IGPs,
// wildcard ACLs and slash prefix-lists), every prefix call a census logs
// after its pins must be one of those pins.
func TestPrescanPinsEveryMappedPrefix(t *testing.T) {
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
	s := Compile(Options{Salt: []byte("pins")}).NewSession()
	mapped := 0
	for name, text := range files {
		pins, full, ferr := s.CensusFile(name, text)
		if ferr != nil {
			t.Fatalf("%s: %v", name, ferr)
		}
		rec := &recordingSink{}
		full.Replay(rec)
		pinned := map[ipanon.Pair]bool{}
		for _, r := range rec.recs[:pins.Len()] {
			pinned[r] = true
		}
		for k, r := range rec.recs[pins.Len():] {
			if r.Out == 0 { // a host call
				continue
			}
			mapped++
			if !pinned[r] {
				t.Errorf("%s: call %d maps %s/%d, which the prescan did not pin",
					name, pins.Len()+k, token.FormatIPv4(r.In), r.Out-1)
			}
		}
	}
	if mapped == 0 {
		t.Fatal("no prefix was mapped: the corpus exercises nothing")
	}
}
