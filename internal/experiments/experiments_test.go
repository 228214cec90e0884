package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestE1DatasetShape(t *testing.T) {
	r := E1Dataset(0.25)
	if r.Networks != 31 {
		t.Errorf("networks = %d", r.Networks)
	}
	if r.Routers < 100 {
		t.Errorf("routers = %d, too few", r.Routers)
	}
	if !(r.MinLines < r.P25 && r.P25 < r.P90 && r.P90 <= r.MaxLines) {
		t.Errorf("percentiles not ordered: %+v", r)
	}
	// Shape check against the paper: small configs well under 200
	// lines exist, large configs near or above 1000 lines exist.
	if r.MinLines > 100 {
		t.Errorf("no small configs: min=%d", r.MinLines)
	}
	if r.MaxLines < 400 {
		t.Errorf("no large configs at this scale: max=%d", r.MaxLines)
	}
	if r.String() == "" {
		t.Error("empty summary")
	}
}

func TestE2AllChecksPass(t *testing.T) {
	r := E2Figure1()
	if !r.OK() {
		t.Errorf("E2 failed: %s", r)
	}
	if len(r.Checks) < 10 {
		t.Errorf("only %d checks", len(r.Checks))
	}
}

func TestE3CommentStats(t *testing.T) {
	r := E3Comments(40, 6) // reduced population for test speed
	if !r.AllStripped {
		t.Error("comments survived anonymization")
	}
	// Population should bracket the paper's statistics loosely.
	if r.MeanPct < 0.3 || r.MeanPct > 5 {
		t.Errorf("mean comment fraction %.2f%% implausible (paper 1.5%%)", r.MeanPct)
	}
	if r.P90Pct < r.MeanPct {
		t.Errorf("p90 %.2f%% below mean %.2f%%", r.P90Pct, r.MeanPct)
	}
}

// goldenRows reads testdata/study_rows.golden, the E4, E5, E6 and E8
// rows at scale 0.2, the E7 row at 6 networks and A2's lengths, keyed by
// their first word. The E rows were recorded before the population
// experiments shared one pass, so a diff means the pass moved a number.
func goldenRows(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "study_rows.golden"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		id, _, _ := strings.Cut(line, " ")
		rows[id] = line
	}
	return rows
}

// study runs the population pass at scale 0.2 once; the E4, E5, E6
// and E8 tests below each check their own rows of it.
var study = sync.OnceValue(func() Study { return PopulationStudy(0.2) })

func TestPopulationStudy(t *testing.T) {
	st := study()
	golden := goldenRows(t)
	for _, row := range []fmt.Stringer{st.E4, st.E5, st.E6, st.E8} {
		got := row.String()
		id, _, _ := strings.Cut(got, " ")
		if got != golden[id] {
			t.Errorf("%s row moved:\n got %s\nwant %s", id, got, golden[id])
		}
	}
}

func TestE4RegexpPrevalenceAndCorrectness(t *testing.T) {
	r := study().E4
	if r.WithPublicRanges != 2 || r.WithPrivateRanges != 3 || r.WithCommunityRange != 2 {
		t.Errorf("prevalence off: %+v", r)
	}
	if r.WithAlternation < 8 || r.WithAlternation > 13 {
		t.Errorf("alternation prevalence %d far from paper's 10", r.WithAlternation)
	}
	if r.WithCommunityRegexp < 4 || r.WithCommunityRegexp > 8 {
		t.Errorf("community regexp prevalence %d far from paper's 5", r.WithCommunityRegexp)
	}
	if r.RewriteMismatches != 0 {
		t.Errorf("rewrite mismatches: %+v", r)
	}
	if r.RewritesVerified == 0 {
		t.Error("no rewrites verified")
	}
}

func TestE5AndE6AllPass(t *testing.T) {
	r5 := study().E5
	if r5.Passed != r5.Networks {
		t.Errorf("suite 1 failures: %s", r5)
	}
	r6 := study().E6
	if r6.Passed != r6.Networks {
		t.Errorf("suite 2 failures: %s", r6)
	}
}

func TestE7Converges(t *testing.T) {
	r := E7LeakIteration(6)
	if !r.Converged {
		t.Fatalf("leak iteration did not converge: %s", r)
	}
	if r.Iterations >= 5 {
		t.Errorf("took %d iterations, paper reports <5", r.Iterations)
	}
	if want := goldenRows(t)["E7"]; r.String() != want {
		t.Errorf("E7 row moved:\n got %s\nwant %s", r, want)
	}
}

func TestE8Fingerprints(t *testing.T) {
	r := study().E8
	if r.FingerprintsSurvive != r.Networks {
		t.Errorf("fingerprints altered by anonymization: %s", r)
	}
	if r.SubnetUnique.Unique < r.Networks*3/4 {
		t.Errorf("subnet fingerprints unexpectedly coarse: %s", r.SubnetUnique)
	}
	if r.Compartmentalized < 8 || r.Compartmentalized > 13 {
		t.Errorf("compartmentalized = %d, want ~10 of 31", r.Compartmentalized)
	}
}

func TestE9Throughput(t *testing.T) {
	r := E9Throughput(20000)
	if r.Lines < 20000 {
		t.Errorf("only %d lines processed", r.Lines)
	}
	if r.LinesPerSec < 1000 {
		t.Errorf("throughput %.0f lines/s suspiciously low", r.LinesPerSec)
	}
	if r.LeaksFound != 0 {
		t.Errorf("confirmed leaks at scale: %d", r.LeaksFound)
	}
}

func TestA1Properties(t *testing.T) {
	r := A1IPSchemes(4000)
	if !r.TreeSpecialFixed {
		t.Error("tree does not fix specials")
	}
	if r.CryptoSpecialFixed {
		t.Error("crypto-pan unexpectedly fixes specials (it cannot)")
	}
	if r.TreeClassPreserved < 0.999 {
		t.Errorf("tree class preservation %.3f", r.TreeClassPreserved)
	}
	if r.CryptoClass > 0.9 {
		t.Errorf("crypto-pan class preservation %.3f implausibly high", r.CryptoClass)
	}
	if r.TreeSubnetZeros < 0.999 {
		t.Errorf("tree subnet zeros %.3f", r.TreeSubnetZeros)
	}
	if r.CryptoSubnetZeros > 0.2 {
		t.Errorf("crypto-pan subnet zeros %.3f implausibly high", r.CryptoSubnetZeros)
	}
}

// a2 runs the A2 ablation once for the tests below.
var a2 = sync.OnceValue(A2RegexForms)

func TestA2MinimalShorterForLargeLanguages(t *testing.T) {
	r := a2()
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	last := r.Rows[len(r.Rows)-1]
	if last.MinLen >= last.AltLen {
		t.Errorf("minimal form not shorter at |L|=%d: min=%d alt=%d",
			last.LanguageSize, last.MinLen, last.AltLen)
	}
	if !strings.Contains(r.String(), "A2") {
		t.Error("summary missing")
	}
}

// TestA2LengthsGolden: A2's alternation and minimal lengths and DFA
// sizes carry no timing, and MinimalRegexp is deterministic, so they
// match the golden A2 row.
func TestA2LengthsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("A2 lengths (|L| alt min states):")
	for _, row := range a2().Rows {
		fmt.Fprintf(&b, " %d %d %d %d;", row.LanguageSize, row.AltLen, row.MinLen, row.DFAStates)
	}
	if got, want := b.String(), goldenRows(t)["A2"]; got != want {
		t.Errorf("A2 row moved:\n got %s\nwant %s", got, want)
	}
}

func TestA3SegmentationPreservesTypes(t *testing.T) {
	r := A3Segmentation()
	if r.PreservedWith < r.Words-2 {
		t.Errorf("segmentation preserved only %d/%d type keywords", r.PreservedWith, r.Words)
	}
	if r.PreservedWithout != 0 {
		t.Errorf("whole-word lookup should preserve none, got %d", r.PreservedWithout)
	}
}

func TestE10JunOS(t *testing.T) {
	r := E10JunOS(6)
	if r.Suite1Passed != r.Networks || r.Suite2Passed != r.Networks {
		t.Errorf("JunOS suites failed: %s", r)
	}
	if r.CrossDialectEq != r.Networks {
		t.Errorf("cross-dialect subnet fingerprints diverge: %s", r)
	}
	if r.EBGPStructureEq != r.Networks {
		t.Errorf("cross-dialect eBGP structure diverges: %s", r)
	}
}
