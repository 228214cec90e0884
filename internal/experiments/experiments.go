// Package experiments implements the reproduction of every quantitative
// claim in the paper's evaluation, one function per experiment (E1–E9 in
// DESIGN.md), plus the ablations (A1–A3). Each returns a structured result
// with a String() summary; bench_test.go at the repository root wraps them
// as benchmarks, and cmd/confexp prints the full paper-vs-measured report
// recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"confanon"
	"confanon/internal/config"
	"confanon/internal/netgen"
)

// population builds the standard 31-network corpus used by several
// experiments, with the paper's regexp-prevalence mix. scale (0,1]
// shrinks router counts for fast runs.
func population(baseSeed int64, scale float64) []*netgen.Network {
	if scale <= 0 {
		scale = 1
	}
	nets := make([]*netgen.Network, 0, 31)
	for i := 0; i < 31; i++ {
		kind := netgen.Backbone
		if i%2 == 1 {
			kind = netgen.Enterprise
		}
		// Size mix: mostly modest networks, a few large, echoing a
		// 7,655-router/31-network dataset (mean ~247).
		base := 20 + i*11
		if i%7 == 0 {
			base *= 3
		}
		routers := int(float64(base) * scale)
		if routers < 6 {
			routers = 6
		}
		nets = append(nets, netgen.Generate(netgen.Params{
			Seed: baseSeed + int64(i), Kind: kind, Routers: routers,
			UseASPathAlternation: i%3 == 0,                      // ~10/31
			UsePublicASNRanges:   i == 4 || i == 20,             // 2/31
			UsePrivateASNRanges:  i == 7 || i == 15 || i == 23,  // 3/31
			UseCommunityRegexps:  i%6 == 2 || i == 2 || i == 14, // ~5/31
			UseCommunityRanges:   i == 2 || i == 14,             // 2/31
			Compartmentalized:    i%3 == 1,                      // ~10/31
		}))
	}
	return nets
}

func percentile(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// parseNetwork parses every rendered config of a network.
func parseNetwork(n *netgen.Network) []*config.Config {
	files := n.RenderAll()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*config.Config, 0, len(files))
	for _, name := range names {
		out = append(out, config.Parse(files[name]))
	}
	return out
}

// anonymizeNetwork anonymizes a network's rendered configs with the
// network's own salt (see anonymizeCorpus).
func anonymizeNetwork(n *netgen.Network) (*confanon.Anonymizer, *confanon.CorpusResult) {
	return anonymizeCorpus(n.Salt, n.RenderAll())
}

// anonymizeCorpus runs a file set through the corpus driver
// (CorpusContext): every file prescanned, then every file rewritten, in
// sorted-name order. It returns the Session, whose recorder backs Leaks,
// and the result, whose Stats and Outputs the experiments measure. Every
// experiment measures whole corpora, so a failed file panics.
func anonymizeCorpus(salt string, files map[string]string) (*confanon.Anonymizer, *confanon.CorpusResult) {
	a := confanon.New(confanon.Options{Salt: []byte(salt)})
	res, err := a.CorpusContext(context.Background(), files)
	if err != nil {
		panic(err)
	}
	if !res.Ok() {
		panic(fmt.Sprintf("experiments: corpus failed: %v", res.Failed()))
	}
	return a, res
}

func parseFiles(files map[string]string) []*config.Config {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*config.Config, 0, len(files))
	for _, name := range names {
		out = append(out, config.Parse(files[name]))
	}
	return out
}

func joinCounts(h map[int]int) string {
	var keys []int
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("/%d:%d", k, h[k]))
	}
	return strings.Join(parts, " ")
}
