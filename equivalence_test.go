package confanon

import (
	"context"
	"fmt"
	"testing"

	"confanon/internal/netgen"
	"confanon/internal/routing"
	"confanon/internal/validate"
)

// TestEquivalenceAcrossWorkers is the end-to-end §5 guarantee at corpus
// scale: for every network of a generated multi-AS corpus, the routing
// design extracted from the anonymized twin is signature-identical to
// the original, and the worker count of the parallel pipeline cannot
// change that (the census/replay split makes the mapping worker-count
// independent). Runs under -race via the CI concurrency gauntlet.
func TestEquivalenceAcrossWorkers(t *testing.T) {
	corpus := netgen.GenerateCorpus(netgen.CorpusParams{Seed: 1, Routers: 60, Networks: 4})
	for i, n := range corpus.Networks {
		files := n.RenderAll()
		pre := validate.ParseAll(files)
		preSig := routing.Extract(pre).Signature()
		if preSig == "" {
			t.Fatalf("network %d (%s): empty design signature", i, n.Params.Name)
		}
		var sigs []string
		for _, workers := range []int{1, 4, 8} {
			workers := workers
			t.Run(fmt.Sprintf("net%d-w%d", i, workers), func(t *testing.T) {
				res, err := ParallelCorpusContext(context.Background(),
					Options{Salt: []byte(n.Salt)}, files, workers)
				if err != nil {
					t.Fatal(err)
				}
				post := validate.ParseAll(res.Outputs())
				postSig := routing.Extract(post).Signature()
				if postSig != preSig {
					t.Errorf("design signature changed under anonymization:\npre:\n%s\npost:\n%s",
						preSig, postSig)
				}
				sigs = append(sigs, postSig)
			})
		}
		for _, s := range sigs[1:] {
			if s != sigs[0] {
				t.Errorf("network %d: post signature differs between worker counts", i)
			}
		}
	}
}

// TestEquivalenceSeed7001ClassfulCorner is the regression for the
// shaped-tree classful-coverage corner the bench harness found (ROADMAP
// open item 4): in this generated network a classful `network 10.0.0.0`
// statement's raw tree image is exactly 0.0.0.0 (special), and the
// original cycle-walk collision chase remapped it out of the /8 its
// member addresses stay in, breaking EIGRP classful coverage — Suite 2
// failed for exactly this (seed, kind) under the default shaped policy.
// The nearest-free chase must keep the image inside the already-fixed
// parent prefix, so design equivalence holds.
func TestEquivalenceSeed7001ClassfulCorner(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 7001, Kind: netgen.Enterprise, Compartmentalized: true})
	files := n.RenderAll()
	pre := validate.ParseAll(files)
	a := New(Options{Salt: []byte(n.Salt)})
	post := validate.ParseAll(mustCorpus(t, a, files))
	if r2 := validate.Suite2(pre, post); !r2.OK() {
		t.Errorf("seed-7001 design signature changed under anonymization:\npre:\n%s\npost:\n%s",
			r2.PreSignature, r2.PostSignature)
	}
	if diffs := validate.Suite1(pre, post); len(diffs) != 0 {
		t.Errorf("seed-7001 characteristic mismatches: %v", diffs)
	}
}
