package experiments

import (
	"fmt"
	"time"

	"confanon/internal/fingerprint"
	"confanon/internal/netgen"
)

// E5Result reproduces validation suite 1 (§5): independent characteristics
// preserved across the whole population.
type E5Result struct {
	Networks int
	Passed   int
	Diffs    []string
}

// String renders the paper-vs-measured row.
func (r E5Result) String() string {
	s := fmt.Sprintf("E5 suite 1: %d/%d networks preserve all independent characteristics (paper: all)", r.Passed, r.Networks)
	if len(r.Diffs) > 0 {
		s += fmt.Sprintf("; sample diff: %s", r.Diffs[0])
	}
	return s
}

// E6Result reproduces validation suite 2 (§5): the routing design
// extracted from anonymized configs is identical to the original's.
type E6Result struct {
	Networks int
	Passed   int
}

// String renders the paper-vs-measured row.
func (r E6Result) String() string {
	return fmt.Sprintf("E6 suite 2: %d/%d networks yield identical routing-design signatures pre/post (paper: designs match)", r.Passed, r.Networks)
}

// E7Result reproduces the iterative leak-closure claim (§6.1): "the
// iteration closes quickly, requiring fewer than 5 iterations".
type E7Result struct {
	SeededLeaks int
	Iterations  int
	Converged   bool
}

// String renders the paper-vs-measured row.
func (r E7Result) String() string {
	return fmt.Sprintf("E7 leak iteration: %d seeded out-of-context ASN leaks closed in %d iterations, converged=%v (paper: <5 iterations over 4.3M lines)",
		r.SeededLeaks, r.Iterations, r.Converged)
}

// E7LeakIteration seeds a corpus with ASNs in contexts none of the 12 ASN
// rules recognize (vendor-specific commands), then runs the §6.1 loop
// through the public driver: anonymize the corpus, collect the leak
// report, AddRule each dangerous token, repeat until the report is clean.
func E7LeakIteration(networks int) E7Result {
	if networks <= 0 {
		networks = 8
	}
	// Build a corpus with unusual ASN-bearing lines appended.
	files := make(map[string]string)
	for i := 0; i < networks; i++ {
		n := netgen.Generate(netgen.Params{Seed: int64(5000 + i), Routers: 8})
		for name, text := range n.RenderAll() {
			switch i % 4 {
			case 0:
				text += "vendor peer-monitor remote 701 enable\n"
			case 1:
				text += "legacy-filter block-origin 1239\n"
			case 2:
				text += "custom probe target-as 7018 interval 30\n"
			}
			files[fmt.Sprintf("n%d-%s", i, name)] = text
		}
	}
	res := E7Result{SeededLeaks: 3}
	var extraRules []string
	for iter := 1; iter <= 6; iter++ {
		a, run := anonymizeCorpus("e7", files, extraRules...)
		dirty := 0
		seen := map[string]bool{}
		for _, l := range a.Leaks(run.Outputs()) {
			if l.LikelyFalsePositive {
				continue
			}
			dirty++
			if !seen[l.Tok] {
				seen[l.Tok] = true
				extraRules = append(extraRules, l.Tok)
			}
		}
		res.Iterations = iter
		if dirty == 0 {
			res.Converged = true
			break
		}
	}
	return res
}

// E8Result reproduces the §6 fingerprinting analysis: fingerprints survive
// anonymization (the attack premise), subnet fingerprints are near-unique
// (the conjectured risk), peering fingerprints are coarser for edge
// networks, and ~10/31 networks are compartmentalized against insiders.
type E8Result struct {
	Networks            int
	FingerprintsSurvive int
	SubnetUnique        fingerprint.Uniqueness
	PeeringUnique       fingerprint.Uniqueness
	Compartmentalized   int
}

// String renders the paper-vs-measured rows.
func (r E8Result) String() string {
	return fmt.Sprintf("E8 fingerprints: survive anonymization %d/%d; subnet %s; peering %s; compartmentalized %d/%d (paper 10/31)",
		r.FingerprintsSurvive, r.Networks, r.SubnetUnique, r.PeeringUnique,
		r.Compartmentalized, r.Networks)
}

// E9Result reproduces the scale claim: 4.3 million configuration lines
// anonymized fully automatically.
type E9Result struct {
	Lines       int
	Routers     int
	Elapsed     time.Duration
	LinesPerSec float64
	LeaksFound  int
}

// String renders the paper-vs-measured row.
func (r E9Result) String() string {
	return fmt.Sprintf("E9 throughput: %d lines across %d routers in %s (%.0f lines/s), %d confirmed leaks (paper: 4.3M lines, fully automated)",
		r.Lines, r.Routers, r.Elapsed.Round(time.Millisecond), r.LinesPerSec, r.LeaksFound)
}

// E9Throughput anonymizes generated corpora until at least targetLines
// configuration lines have been processed, measuring wall-clock rate.
func E9Throughput(targetLines int) E9Result {
	if targetLines <= 0 {
		targetLines = 100000
	}
	res := E9Result{}
	start := time.Now()
	seed := int64(9000)
	for res.Lines < targetLines {
		n := netgen.Generate(netgen.Params{Seed: seed, Routers: 60})
		seed++
		a, run := anonymizeCorpus(n.Salt, n.RenderAll())
		res.Lines += int(run.Stats.Lines)
		res.Routers += int(run.Stats.Files)
		for _, l := range a.Leaks(run.Outputs()) {
			if !l.LikelyFalsePositive {
				res.LeaksFound++
			}
		}
	}
	res.Elapsed = time.Since(start)
	res.LinesPerSec = float64(res.Lines) / res.Elapsed.Seconds()
	return res
}
