package confanon_test

// The benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index (E1–E10 reproduce the paper's quantitative claims;
// A1–A3 are the design-choice ablations), except that E4, E5, E6 and E8
// share BenchmarkPopulationStudy, the one pass that measures them. Each
// benchmark drives the corresponding function in internal/experiments and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every row recorded in EXPERIMENTS.md (at reduced scale; run
// cmd/confexp -full for the full-scale report).

import (
	"context"
	"io"
	"strings"
	"testing"

	"confanon"
	"confanon/internal/experiments"
	"confanon/internal/netgen"
)

func BenchmarkE1_DatasetGeneration(b *testing.B) {
	var r experiments.E1Result
	for i := 0; i < b.N; i++ {
		r = experiments.E1Dataset(0.2)
	}
	b.ReportMetric(float64(r.Routers), "routers")
	b.ReportMetric(float64(r.P25), "lines-p25")
	b.ReportMetric(float64(r.P90), "lines-p90")
}

func BenchmarkE2_Figure1(b *testing.B) {
	pass := 0
	for i := 0; i < b.N; i++ {
		if experiments.E2Figure1().OK() {
			pass++
		}
	}
	if pass != b.N {
		b.Fatalf("E2 failed %d/%d runs", b.N-pass, b.N)
	}
}

func BenchmarkE3_CommentStripping(b *testing.B) {
	var r experiments.E3Result
	for i := 0; i < b.N; i++ {
		r = experiments.E3Comments(20, 6)
	}
	b.ReportMetric(r.MeanPct, "mean-%")
	b.ReportMetric(r.P90Pct, "p90-%")
}

// BenchmarkPopulationStudy is the one pass behind E4, E5, E6 and E8:
// the standard population rendered, parsed, anonymized and parsed again
// once, with every row's checks read from those artifacts.
func BenchmarkPopulationStudy(b *testing.B) {
	var st experiments.Study
	for i := 0; i < b.N; i++ {
		st = experiments.PopulationStudy(0.1)
	}
	if st.E4.RewriteMismatches != 0 {
		b.Fatalf("rewrite mismatches: %+v", st.E4)
	}
	if st.E5.Passed != st.E5.Networks {
		b.Fatalf("suite 1 failures: %s", st.E5)
	}
	if st.E6.Passed != st.E6.Networks {
		b.Fatalf("suite 2 failures: %s", st.E6)
	}
	b.ReportMetric(float64(st.E4.RewritesVerified), "rewrites-verified")
	b.ReportMetric(float64(st.E8.SubnetUnique.Unique), "subnet-unique")
	b.ReportMetric(st.E8.SubnetUnique.EntropyBits, "subnet-entropy-bits")
	b.ReportMetric(float64(st.E8.PeeringUnique.Unique), "peering-unique")
}

func BenchmarkE7_LeakIteration(b *testing.B) {
	var r experiments.E7Result
	for i := 0; i < b.N; i++ {
		r = experiments.E7LeakIteration(4)
		if !r.Converged {
			b.Fatal("did not converge")
		}
	}
	b.ReportMetric(float64(r.Iterations), "iterations")
}

func BenchmarkE9_Throughput(b *testing.B) {
	var r experiments.E9Result
	for i := 0; i < b.N; i++ {
		r = experiments.E9Throughput(30000)
	}
	b.ReportMetric(r.LinesPerSec, "lines/s")
}

func BenchmarkA1_IPSchemes(b *testing.B) {
	var r experiments.A1Result
	for i := 0; i < b.N; i++ {
		r = experiments.A1IPSchemes(10000)
	}
	b.ReportMetric(r.TreeNsPerAddr, "tree-ns/addr")
	b.ReportMetric(r.CryptoNsPerAddr, "crypto-ns/addr")
}

func BenchmarkA2_RegexMinimize(b *testing.B) {
	var r experiments.A2Result
	for i := 0; i < b.N; i++ {
		r = experiments.A2RegexForms()
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(float64(last.AltLen), "alt-chars")
	b.ReportMetric(float64(last.MinLen), "min-chars")
}

func BenchmarkA3_Segmentation(b *testing.B) {
	var r experiments.A3Result
	for i := 0; i < b.N; i++ {
		r = experiments.A3Segmentation()
	}
	b.ReportMetric(float64(r.PreservedWith), "preserved-with")
	b.ReportMetric(float64(r.PreservedWithout), "preserved-without")
}

func BenchmarkE10_JunOS(b *testing.B) {
	var r experiments.E10Result
	for i := 0; i < b.N; i++ {
		r = experiments.E10JunOS(4)
	}
	if r.Suite1Passed != r.Networks || r.Suite2Passed != r.Networks {
		b.Fatalf("JunOS suites failed: %s", r)
	}
	b.ReportMetric(float64(r.CrossDialectEq), "cross-dialect-eq")
}

// BenchmarkAnonymizeCorpus is the end-to-end pipeline microbenchmark: one
// 40-router network through CorpusContext — the one-worker row of the
// corpus driver (census, replay, fill, gate).
func BenchmarkAnonymizeCorpus(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 4242, Kind: netgen.Backbone, Routers: 40})
	files := n.RenderAll()
	lines := n.TotalLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := confanon.New(confanon.Options{Salt: []byte("bench")}).CorpusContext(context.Background(), files)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("corpus not clean: failed %v, quarantined %v", res.Failed(), res.Quarantined())
		}
	}
	b.ReportMetric(float64(lines), "lines/corpus")
}

// BenchmarkStream measures the reader-to-writer path: the same 40-router
// corpus concatenated into one input, streamed in both IP schemes. The
// stateless variant is the constant-memory single-pass path; the tree
// variant buffers the input for its prescan, so the gap between the two
// is the cost of shaping.
func BenchmarkStream(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 4242, Kind: netgen.Backbone, Routers: 40})
	var sb strings.Builder
	for _, text := range n.RenderAll() {
		sb.WriteString(text)
	}
	input := sb.String()
	lines := strings.Count(input, "\n")
	for _, cfg := range []struct {
		name      string
		stateless bool
	}{{"stateless", true}, {"tree", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				a := confanon.New(confanon.Options{Salt: []byte("bench"), StatelessIP: cfg.stateless})
				if err := a.Stream(strings.NewReader(input), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}
