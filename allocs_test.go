package confanon

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/netgen"
	"confanon/internal/token"
)

// TestAllocsPerLine is the allocation ratchet: allocations per input
// line on a fixed 3,333-line corpus (netgen seed 7, 20 routers), for the
// tokenizer (fresh slices, and one buffer reused across the lines as the
// engine's workers reuse theirs), the engine under both IP schemes and the leak report,
// measured in steady state (the mapping and recorder are warm after
// AllocsPerRun's first call), and per replayed record for restoring the
// ledger a strict run over that corpus records (ledger-restore). A count may not exceed its baseline in
// allocs_baseline.txt by more than 0.01. Lower a baseline when a change
// removes allocations; never raise one to make a red run green.
func TestAllocsPerLine(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts differ under the race detector")
	}
	files := netgen.Generate(netgen.Params{Seed: 7, Routers: 20}).RenderAll()
	names := sortedNames(files)
	var lines []string
	for _, n := range names {
		lines = append(lines, anonymizer.SplitLines(files[n])...)
	}
	perLine := func(f func()) float64 { return testing.AllocsPerRun(5, f) / float64(len(lines)) }

	var buf []string
	got := map[string]float64{
		"token-fields": perLine(func() {
			for _, l := range lines {
				token.Fields(l)
			}
		}),
		"token-appendfields": perLine(func() {
			for _, l := range lines {
				_, _, buf = token.AppendFields(buf[:0], l)
			}
		}),
	}
	for _, scheme := range []struct {
		name      string
		stateless bool
	}{{"engine-tree", false}, {"engine-stateless", true}} {
		s := anonymizer.Compile(anonymizer.Options{Salt: []byte("allocs"), StatelessIP: scheme.stateless}).NewSession()
		wk := s.Acquire()
		outs := make([]string, len(names))
		got[scheme.name] = perLine(func() {
			for i, n := range names {
				outs[i], _ = wk.SafeAnonymizeText(n, files[n])
			}
		})
		if !scheme.stateless {
			got["leakreport"] = perLine(func() {
				for _, out := range outs {
					wk.LeakReport(out)
				}
			})
		}
		s.Release(wk)
	}

	got["ledger-restore"] = ledgerRestoreAllocs(t, files)

	base := readAllocsBaseline(t)
	for name, v := range got {
		want, ok := base[name]
		if !ok {
			t.Errorf("allocs_baseline.txt has no %s entry (measured %.3f)", name, v)
			continue
		}
		t.Logf("%s: %.3f allocs (baseline %.3f)", name, v, want)
		if v > want+0.01 {
			t.Errorf("%s: %.3f allocs exceeds the %.3f baseline by more than 0.01", name, v, want)
		}
	}
}

// ledgerRestoreAllocs records files into a mapping ledger, as one
// `confanon -strict -state-dir` run does, and returns the allocations
// per replayed record of opening the ledger and restoring it into a
// fresh Session (OpenMappingStore, UseStore, Close).
func ledgerRestoreAllocs(t *testing.T, files map[string]string) float64 {
	salt := []byte("allocs")
	dir := t.TempDir()
	recordLedger(t, dir, files, salt)
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(seg), "\n"), "\n") {
		if !strings.Contains(line, `"t":"open"`) && !strings.Contains(line, `"t":"commit"`) {
			records++
		}
	}
	prog := Compile(Options{Salt: salt, Strict: true})
	// Each Open starts a new segment; removing it keeps every run
	// replaying the same one.
	active := filepath.Join(dir, "seg-000002.jsonl")
	return testing.AllocsPerRun(5, func() {
		ms, err := OpenMappingStore(dir, salt)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.NewSession().UseStore(ms); err != nil {
			t.Fatal(err)
		}
		if err := ms.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(active); err != nil {
			t.Fatal(err)
		}
	}) / float64(records)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// readAllocsBaseline parses allocs_baseline.txt: one "name value" pair
// per line, '#' starting a comment.
func readAllocsBaseline(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("allocs_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("allocs_baseline.txt: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("allocs_baseline.txt: %v", err)
		}
		base[fields[0]] = v
	}
	return base
}
