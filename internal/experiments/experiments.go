// Package experiments implements the reproduction of every quantitative
// claim in the paper's evaluation (E1–E10 in DESIGN.md), plus the
// ablations (A1–A3). E4, E5, E6 and E8 measure one population and come
// from one pass over it, PopulationStudy; every other experiment has its
// own function. Each result has a String() summary; bench_test.go at the
// repository root wraps them as benchmarks, and cmd/confexp prints the
// full paper-vs-measured report recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"

	"confanon"
	"confanon/internal/asn"
	"confanon/internal/fingerprint"
	"confanon/internal/netgen"
	"confanon/internal/validate"
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

// anonymizeCorpus runs a file set through the corpus driver
// (CorpusContext): every file's pins replayed, then every file's
// mapper calls, in sorted-name order, with rules added as operator-supplied sensitive
// tokens. It returns the Session, whose recorder backs Leaks, and the
// result, whose Stats and Outputs the experiments measure. Every
// experiment measures whole corpora, so a failed file panics.
func anonymizeCorpus(salt string, files map[string]string, rules ...string) (*confanon.Anonymizer, *confanon.CorpusResult) {
	a := confanon.New(confanon.Options{Salt: []byte(salt)})
	for _, r := range rules {
		a.AddRule(r)
	}
	res, err := a.CorpusContext(context.Background(), files)
	if err != nil {
		panic(err)
	}
	if !res.Ok() {
		panic(fmt.Sprintf("experiments: corpus failed: %v", res.Failed()))
	}
	return a, res
}

// Study holds the rows measured on the standard population: the
// regexp checks (E4), validation suites 1 and 2 (E5, E6) and the
// fingerprint study (E8).
type Study struct {
	E4 E4Result
	E5 E5Result
	E6 E6Result
	E8 E8Result
}

// PopulationStudy walks the standard population one network at a time.
// Each network is rendered, parsed, anonymized with its own salt and
// its outputs parsed, once; E4, E5, E6 and E8 all read those artifacts.
// A network's files are dropped before the next network is rendered,
// so peak memory holds one network's text, never the population's.
func PopulationStudy(scale float64) Study {
	nets := population(1000, scale)
	st := Study{
		E4: E4Result{Networks: len(nets)},
		E5: E5Result{Networks: len(nets)},
		E6: E6Result{Networks: len(nets)},
		E8: E8Result{Networks: len(nets)},
	}
	var subnetKeys, peeringKeys []string
	for i, n := range nets {
		files := n.RenderAll()
		pre := validate.ParseAll(files)
		_, run := anonymizeCorpus(n.Salt, files)
		post := validate.ParseAll(run.Outputs())

		st.E4.measure(pre, post, int(run.Stats.RegexpsRewritten), asn.NewSalted([]byte(n.Salt)).ASN.Map)

		if diffs := validate.Suite1(pre, post); len(diffs) == 0 {
			st.E5.Passed++
		} else {
			st.E5.Diffs = append(st.E5.Diffs, diffs...)
		}
		if validate.Suite2(pre, post).OK() {
			st.E6.Passed++
		}

		sPre, sPost := fingerprint.SubnetOf(pre).Key(), fingerprint.SubnetOf(post).Key()
		pPre, pPost := fingerprint.PeeringOf(pre).Key(), fingerprint.PeeringOf(post).Key()
		if sPre == sPost && pPre == pPost {
			st.E8.FingerprintsSurvive++
		}
		subnetKeys = append(subnetKeys, sPost)
		peeringKeys = append(peeringKeys, pPost)
		if fingerprint.Compartmentalized(post) {
			st.E8.Compartmentalized++
		}
		nets[i] = nil // let the collector take its object model too
	}
	st.E8.SubnetUnique = fingerprint.Analyze(subnetKeys)
	st.E8.PeeringUnique = fingerprint.Analyze(peeringKeys)
	return st
}
