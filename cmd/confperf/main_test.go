package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfperf builds confperf and confportal, runs every workload at a
// tiny size, and checks the benchmark's contract: every metric
// BENCHMARK.json names is emitted with its unit, every output check
// passes, and a corrupted output byte fails the run. confperf is a module
// of its own, so the repository's `go test ./...` and ci.sh do not run
// this test: run it with `cd cmd/confperf && go test ./...` after
// changing an API the benchmark calls.
func TestConfperf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	self := filepath.Join(dir, "confperf")
	portal := filepath.Join(dir, "confportal")
	for _, build := range [][]string{
		{"build", "-o", self, "."},
		{"build", "-o", portal, "confanon/cmd/confportal"},
	} {
		if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(build, " "), err, out)
		}
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	confperf := func(args ...string) (int, *summary, string) {
		args = append([]string{"-seconds", "1", "-lines", "3000", "-work-dir", dir, "-portal-bin", portal}, args...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatalf("last line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
		}
		return code, &s, stdout.String() + stderr.String()
	}

	t.Run("all workloads", func(t *testing.T) {
		reportPath := filepath.Join(dir, "report.json")
		code, s, log := confperf("-json", reportPath)
		if code != 0 || !s.Correct || s.Failed != 0 {
			t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, s.Correct, s.Failed, s.Attempted, log)
		}
		b, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Workloads) != len(sp.Workloads) {
			t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(sp.Workloads))
		}
		for i, w := range rep.Workloads {
			if w.Name != sp.Workloads[i].Name || len(w.Digest) != 64 {
				t.Errorf("workload %d: name %q digest %q", i, w.Name, w.Digest)
			}
			for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
				got, ok := w.Runs[0].Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case got.Unit != m.Unit || got.N < 1:
					t.Errorf("%s: %s = %+v, want unit %s and samples", w.Name, m.Name, got, m.Unit)
				}
			}
			if w.Runs[0].Failed != 0 {
				t.Errorf("%s: error_ratio %d/%d", w.Name, w.Runs[0].Failed, w.Runs[0].Attempted)
			}
		}
		for _, m := range sp.PerLayer {
			if _, ok := s.Metrics[m.Name+"@corpus-strict"]; !ok {
				t.Errorf("summary line lacks %s@corpus-strict", m.Name)
			}
		}
	})

	t.Run("corrupted output", func(t *testing.T) {
		code, s, log := confperf("-workload", "corpus-strict", "-trace", "0", "-corrupt")
		if code == 0 || s.Correct || s.Failed == 0 {
			t.Fatalf("one flipped byte per run: exit %d, correct %v, %d failed\n%s", code, s.Correct, s.Failed, log)
		}
		for _, m := range sp.EndToEnd {
			if _, ok := s.Metrics[m.Name]; !ok {
				t.Errorf("summary line lacks %s", m.Name)
			}
		}
	})
}
