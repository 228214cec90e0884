package confanon_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	. "confanon"
	"confanon/internal/anonymizer"
	"confanon/internal/metrics"
	"confanon/internal/portal"
)

const goldenSalt = "golden-v1"

func readGoldenDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	if len(files) == 0 {
		t.Fatalf("no files in %s", dir)
	}
	return files
}

// This file pins the observability contract end to end: the registry's
// counters must agree exactly with the Stats and per-file outcomes the
// batch APIs report — in the serial and the parallel mode — and a
// portal GET /metrics scrape of the same registry must expose the very
// numbers the RunReport carries.

// checkStatsCounters asserts the registry's engine counters equal the
// accumulated Stats, series for series.
func checkStatsCounters(t *testing.T, counters map[string]float64, s Stats) {
	t.Helper()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"confanon_files_processed_total", s.Files},
		{"confanon_lines_total", s.Lines},
		{"confanon_words_total", s.WordsTotal},
		{"confanon_comment_words_removed_total", s.CommentWordsRemoved},
		{"confanon_comment_lines_removed_total", s.CommentLinesRemoved},
		{"confanon_tokens_hashed_total", s.TokensHashed},
		{"confanon_tokens_passed_total", s.TokensPassed},
		{"confanon_ips_mapped_total", s.IPsMapped},
		{"confanon_asns_mapped_total", s.ASNsMapped},
		{"confanon_communities_mapped_total", s.CommunitiesMapped},
		{"confanon_regexps_rewritten_total", s.RegexpsRewritten},
		{"confanon_regexps_unchanged_total", s.RegexpsUnchanged},
		{"confanon_regexp_fallbacks_total", s.RegexpFallbacks},
	} {
		if got := counters[c.name]; got != float64(c.want) {
			t.Errorf("%s = %v, want %d (Stats)", c.name, got, c.want)
		}
	}
	for id, n := range s.RuleHits() {
		series := `confanon_rule_hits_total{rule="` + string(id) + `"}`
		if got := counters[series]; got != float64(n) {
			t.Errorf("%s = %v, want %d", series, got, n)
		}
	}
}

// TestMetricsMatchCorpusSerial: after a serial fail-closed corpus run
// the registry equals the CorpusResult exactly — engine counters equal
// Stats, batch outcome counters equal the per-status file counts, and
// the attached RunReport snapshot equals a live read of the registry.
func TestMetricsMatchCorpusSerial(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	a := New(Options{Salt: []byte(goldenSalt), Metrics: reg})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Counters()
	checkStatsCounters(t, counters, res.Stats)
	if got := counters[`confanon_batch_files_total{status="ok"}`]; got != float64(res.Report.FilesOK) {
		t.Errorf("batch ok counter = %v, want %d", got, res.Report.FilesOK)
	}
	if res.Report.FilesOK != len(in) || res.Report.FilesFailed != 0 || res.Report.FilesQuarantined != 0 {
		t.Errorf("unexpected outcome counts: %+v", res.Report)
	}
	if !reflect.DeepEqual(res.Report.Counters, counters) {
		t.Error("RunReport.Counters does not equal a live registry read")
	}
}

// TestMetricsMatchCorpusParallel: the parallel path shares one registry
// across workers, so the merged counters must equal the merged Stats
// with no gather step. Run with -race this also exercises concurrent
// registration and flushing.
func TestMetricsMatchCorpusParallel(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	res, err := ParallelCorpusContext(context.Background(),
		Options{Salt: []byte(goldenSalt), Metrics: reg}, in, 4)
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Counters()
	checkStatsCounters(t, counters, res.Stats)
	if got := counters[`confanon_batch_files_total{status="ok"}`]; got != float64(res.Report.FilesOK) {
		t.Errorf("batch ok counter = %v, want %d", got, res.Report.FilesOK)
	}
	if res.Report.FilesOK != len(in) {
		t.Errorf("FilesOK = %d, want %d", res.Report.FilesOK, len(in))
	}
}

// TestPortalScrapeMatchesRunReport is the acceptance check of the
// observability layer: a portal serving the same registry a corpus run
// reported into must expose, at GET /metrics, exactly the counter
// values the RunReport carries — series for series, parsed back out of
// the Prometheus text.
func TestPortalScrapeMatchesRunReport(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	a := New(Options{Salt: []byte(goldenSalt), Metrics: reg, Strict: true})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Counters) == 0 {
		t.Fatal("RunReport carries no counters")
	}

	store := portal.NewStore()
	store.SetMetrics(reg)
	store.SetAdminToken("sesame")
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	scrape := func(token string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The gate: wrong token is 401, right token is 200.
	if resp := scrape("wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong admin token: status %d, want 401", resp.StatusCode)
	}
	resp := scrape("sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped, err := metrics.ParseText(string(body))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	for series, want := range res.Report.Counters {
		got, ok := scraped[series]
		if !ok {
			t.Errorf("scrape is missing series %s", series)
			continue
		}
		if got != want {
			t.Errorf("scrape %s = %v, report says %v", series, got, want)
		}
	}
}

// TestPortalMetricsFailClosed: with no admin token configured the
// observability endpoints do not exist — 404, exactly like any unknown
// path — even when a registry is wired.
func TestPortalMetricsFailClosed(t *testing.T) {
	store := portal.NewStore()
	store.SetMetrics(NewMetricsRegistry())
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without admin token: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestProgramCountersNotDoubledAcrossSessions: two Sessions of one
// Program share a registry. The Program-level series — the rewrite
// memo's hits and misses, the ASN permutation's cycle walks — must read
// the Program's own values, not one copy per Session, while the
// Session-level engine counters sum over both Sessions.
func TestProgramCountersNotDoubledAcrossSessions(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	prog := Compile(Options{Salt: []byte(goldenSalt), Metrics: reg})
	var sum Stats
	for i := 0; i < 2; i++ {
		res, err := prog.NewSession().CorpusContext(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(res.Stats)
	}
	hits, misses, walks := ProgramCounters(prog)
	if misses == 0 || hits == 0 {
		t.Fatalf("golden corpus exercised no rewrite memo (hits %d, misses %d)", hits, misses)
	}
	counters := reg.Counters()
	for name, want := range map[string]int64{
		"confanon_cregex_cache_hits_total":   hits,
		"confanon_cregex_cache_misses_total": misses,
		"confanon_asn_cycle_walks_total":     walks,
	} {
		if got := counters[name]; got != float64(want) {
			t.Errorf("%s = %v, want the Program's %d", name, got, want)
		}
	}
	checkStatsCounters(t, counters, sum)
}

// TestMetricsMatchStatsAfterRollback: a file that fails mid-rewrite
// never reaches Stats, and the registry — which reads Stats at scrape
// time — must agree with the result series for series, in the serial
// and parallel batch modes. The stream case fails the sink on close
// after a clean rewrite: the close runs inside the file's unit, so the
// file is dropped before its counts reach the Session.
func TestMetricsMatchStatsAfterRollback(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	const poison = "cr2-sfo-confg"
	run := func(t *testing.T, body func(a *Anonymizer) Stats) {
		reg := NewMetricsRegistry()
		a := New(Options{Salt: []byte(goldenSalt), Metrics: reg})
		st := body(a)
		if st.Files != int64(len(in)-1) {
			t.Fatalf("Stats count %d files, want %d (the poisoned file dropped)", st.Files, len(in)-1)
		}
		checkStatsCounters(t, reg.Counters(), st)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			anonymizer.SetFaultHook(func(name string, line int) {
				if name == poison && line == 10 {
					panic("injected mid-rewrite fault")
				}
			})
			defer anonymizer.SetFaultHook(nil)
			run(t, func(a *Anonymizer) Stats {
				res, err := a.ParallelCorpusContext(context.Background(), in, workers)
				if err != nil {
					t.Fatal(err)
				}
				if f := res.Files[poison]; f.Status != FileFailed {
					t.Fatalf("%s status %v, want failed", poison, f.Status)
				}
				return res.Stats
			})
		})
	}
	t.Run("stream-close-fails", func(t *testing.T) {
		run(t, func(a *Anonymizer) Stats {
			names := make([]string, 0, len(in))
			for n := range in {
				names = append(names, n)
			}
			sort.Strings(names)
			next := func() (string, io.Reader, error) {
				if len(names) == 0 {
					return "", nil, io.EOF
				}
				n := names[0]
				names = names[1:]
				return n, strings.NewReader(in[n]), nil
			}
			sink := func(name string) (io.WriteCloser, error) {
				return &closeFailer{fail: name == poison}, nil
			}
			ferrs, err := a.StreamCorpusContext(context.Background(), next, sink)
			if err != nil {
				t.Fatal(err)
			}
			if len(ferrs) != 1 || ferrs[0].Name != poison {
				t.Fatalf("file errors %v, want exactly %s", ferrs, poison)
			}
			return a.Stats()
		})
	})
}

// closeFailer discards writes and, when fail is set, fails on Close.
type closeFailer struct{ fail bool }

func (w *closeFailer) Write(p []byte) (int, error) { return len(p), nil }

func (w *closeFailer) Close() error {
	if w.fail {
		return errors.New("sink close failed")
	}
	return nil
}

// TestMetricsScrapeDuringRuns: scrapes race Sessions of one Program
// being wired and run in parallel. Collectors are registered while
// others run, each scrape reads live Stats, and once every run is done
// the registry equals the Sessions' summed Stats.
func TestMetricsScrapeDuringRuns(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	prog := Compile(Options{Salt: []byte(goldenSalt), Metrics: reg})
	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.Counters()
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	results := make([]Stats, 3)
	var runs sync.WaitGroup
	for i := range results {
		runs.Add(1)
		go func() {
			defer runs.Done()
			res, err := prog.NewSession().ParallelCorpusContext(context.Background(), in, 2)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Stats
		}()
	}
	runs.Wait()
	close(done)
	scraper.Wait()
	var sum Stats
	for _, st := range results {
		sum.Add(st)
	}
	checkStatsCounters(t, reg.Counters(), sum)
}
