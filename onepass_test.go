package confanon

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/netgen"
	"confanon/internal/store"
)

// This file pins the parallel driver's one-pass contract: under the
// shaped tree, every input line goes through the engine exactly once at
// any worker count, and a traced run records the same decisions, rule
// hits and counters whichever way the files were scheduled.

// engineVisits counts the engine's per-line fault-hook calls made by
// run, per "file:line".
func engineVisits(t *testing.T, run func() (*CorpusResult, error)) map[string]int {
	t.Helper()
	var mu sync.Mutex
	visits := map[string]int{}
	anonymizer.SetFaultHook(func(name string, line int) {
		mu.Lock()
		visits[fmt.Sprintf("%s:%d", name, line)]++
		mu.Unlock()
	})
	res, err := run()
	anonymizer.SetFaultHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed()) != 0 {
		t.Fatalf("failed files %v", res.Failed())
	}
	return visits
}

// checkVisits fails unless every line of every file that runs reached
// the engine exactly once and no other line reached it.
func checkVisits(t *testing.T, label string, files map[string]string, runs func(name string) bool, visits map[string]int) {
	t.Helper()
	want := 0
	for name, text := range files {
		n := 0
		if runs(name) {
			n = 1
		}
		for l := 1; l <= len(anonymizer.SplitLines(text)); l++ {
			want += n
			if got := visits[fmt.Sprintf("%s:%d", name, l)]; got != n {
				t.Fatalf("%s: %s line %d went through the engine %d times, want %d", label, name, l, got, n)
			}
		}
	}
	if len(visits) != want {
		t.Errorf("%s: %d (file, line) visits, want %d", label, len(visits), want)
	}
}

// TestEngineVisitsEachLineOnce counts the engine's per-line fault-hook
// calls over a strict ParallelCorpusContext run: one per (file, line) at
// every worker count. At two or more workers the census is the only
// engine pass; the fill rewrites no line. An incremental run over
// mutateCorpus's edits, under both IP schemes, sends every line of a
// changed file through the engine once and no line of a file the cache
// serves.
func TestEngineVisitsEachLineOnce(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1205, Kind: netgen.Backbone, Routers: 8})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt), Strict: true}
	all := func(string) bool { return true }
	for _, workers := range []int{1, 2, 4} {
		visits := engineVisits(t, func() (*CorpusResult, error) {
			return ParallelCorpusContext(context.Background(), opts, files, workers)
		})
		checkVisits(t, fmt.Sprintf("parallel workers=%d", workers), files, all, visits)
	}

	v2, appended, edited, _, added := mutateCorpus(t, files)
	changed := func(name string) bool { return name == appended || name == edited || name == added }
	for _, stateless := range []bool{false, true} {
		opts := Options{Salt: []byte(n.Salt), Strict: true, StatelessIP: stateless}
		rec := New(opts)
		_, cache, err := rec.IncrementalCorpusContext(context.Background(), files, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		state := rec.SaveMapping()
		for _, workers := range []int{1, 2, 4} {
			a := New(opts)
			if err := a.LoadMapping(state); err != nil {
				t.Fatal(err)
			}
			visits := engineVisits(t, func() (*CorpusResult, error) {
				res, _, err := a.IncrementalCorpusContext(context.Background(), v2, cache, workers)
				return res, err
			})
			checkVisits(t, fmt.Sprintf("incremental stateless=%t workers=%d", stateless, workers), v2, changed, visits)
		}
	}
}

// tracedRun is what a traced golden run records that must not depend
// on the worker count.
type tracedRun struct {
	ledger   []string
	ruleHits map[string]map[string]string
	counters map[string]float64
}

// runTraced runs the golden corpus traced, with a metrics registry, at
// the given worker count.
func runTraced(t *testing.T, in map[string]string, workers int) tracedRun {
	t.Helper()
	tr := NewTracer()
	reg := NewMetricsRegistry()
	res, err := ParallelCorpusContext(context.Background(),
		Options{Salt: []byte(goldenSalt), Tracer: tr, Metrics: reg}, in, workers)
	if err != nil || !res.Ok() {
		t.Fatalf("workers=%d: err %v, failed %v", workers, err, res.Failed())
	}
	var run tracedRun
	for _, d := range tr.Ledger() {
		run.ledger = append(run.ledger, fmt.Sprintf("%s\x00%09d\x00%s\x00%s\x00%s", d.File, d.Line, d.Class, d.Out, d.Rule))
	}
	sort.Strings(run.ledger)

	spans := tr.Spans()
	byID := make(map[uint64]*Span, len(spans))
	for _, s := range spans {
		byID[uint64(s.ID)] = s
	}
	run.ruleHits = map[string]map[string]string{}
	for _, s := range spans {
		if s.Kind != "rule" {
			continue
		}
		stage := byID[uint64(s.Parent)]
		file := byID[uint64(stage.Parent)]
		if file == nil || file.Kind != "file" || file.Attr("op") != "rewrite" {
			continue
		}
		if run.ruleHits[file.Name] == nil {
			run.ruleHits[file.Name] = map[string]string{}
		}
		run.ruleHits[file.Name][s.Name] = s.Attr("hits")
	}

	// Timing values (the stage latencies' sums and buckets, attributed
	// rule time) are machine noise; how many latencies each stage
	// observed is not. The compiled Program's work counters (regexp memo
	// hits and misses, ASN cycle walks) count engine passes, not
	// outcomes. Every other counter must agree.
	run.counters = map[string]float64{}
	for k, v := range res.Report.Counters {
		if strings.Contains(k, "_seconds_sum") || strings.Contains(k, "_seconds_bucket") || strings.Contains(k, "_time_ns") ||
			strings.HasPrefix(k, "confanon_cregex_cache_") || strings.HasPrefix(k, "confanon_asn_cycle_walks") {
			continue
		}
		run.counters[k] = v
	}
	return run
}

// TestTracesIndependentOfWorkerCount compares a traced golden run at
// one and four workers: the decision ledgers (sorted by file, line,
// class and replacement), each file's rewrite-stage rule hits, and the
// run report's counters other than timing series.
func TestTracesIndependentOfWorkerCount(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	one, four := runTraced(t, in, 1), runTraced(t, in, 4)
	if len(one.ledger) == 0 {
		t.Fatal("traced run recorded no decisions")
	}
	if !reflect.DeepEqual(one.ledger, four.ledger) {
		t.Errorf("decision ledgers differ: %d decisions at 1 worker, %d at 4", len(one.ledger), len(four.ledger))
		for i := range one.ledger {
			if i >= len(four.ledger) || one.ledger[i] != four.ledger[i] {
				t.Errorf("first difference at %d: %q", i, one.ledger[i])
				break
			}
		}
	}
	if len(one.ruleHits) != len(in) {
		t.Errorf("rule spans cover %d files, want %d", len(one.ruleHits), len(in))
	}
	if !reflect.DeepEqual(one.ruleHits, four.ruleHits) {
		t.Errorf("per-file rewrite rule hits differ:\n 1: %v\n 4: %v", one.ruleHits, four.ruleHits)
	}
	for k, v := range one.counters {
		if four.counters[k] != v {
			t.Errorf("counter %s = %v at 1 worker, %v at 4", k, v, four.counters[k])
		}
	}
	for k := range four.counters {
		if _, ok := one.counters[k]; !ok {
			t.Errorf("counter %s only at 4 workers", k)
		}
	}
}

// TestPhaseSpans: a traced strict run under the shaped tree records
// each of its phases as one stage span under the corpus span — census,
// replay, fill and gate, at one worker as at four.
func TestPhaseSpans(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	phases := map[string]bool{"census": true, "replay": true, "fill": true, "engine": true, "gate": true}
	want := map[string]int{"census": 1, "replay": 1, "fill": 1, "gate": 1}
	for _, workers := range []int{1, 4} {
		tr := NewTracer()
		if _, err := ParallelCorpusContext(context.Background(),
			Options{Salt: []byte(goldenSalt), Tracer: tr, Strict: true}, in, workers); err != nil {
			t.Fatal(err)
		}
		var corpus *Span
		for _, s := range tr.Spans() {
			if s.Kind == "corpus" {
				corpus = s
			}
		}
		got := map[string]int{}
		for _, s := range tr.Spans() {
			if s.Kind == "stage" && s.Parent == corpus.ID && phases[s.Name] {
				got[s.Name]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: phase spans %v, want %v", workers, got, want)
		}
	}
}

// TestLedgerIndependentOfWorkerCount: a store-backed run commits the
// same durable record set — IP pairs, recorder entries — and resolves
// the same IPMapping at one and four workers, under both IP schemes.
// Under the shaped tree the IP pairs also keep their insertion order.
func TestLedgerIndependentOfWorkerCount(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1206, Kind: netgen.Enterprise, Routers: 10})
	files := n.RenderAll()
	salt := []byte(n.Salt)
	for _, stateless := range []bool{false, true} {
		run := func(workers int) (store.State, string) {
			dir := t.TempDir()
			ms, err := OpenMappingStore(dir, salt)
			if err != nil {
				t.Fatal(err)
			}
			a := New(Options{Salt: salt, StatelessIP: stateless, Strict: true})
			if err := a.UseStore(ms); err != nil {
				t.Fatal(err)
			}
			if _, err := a.ParallelCorpusContext(context.Background(), files, workers); err != nil {
				t.Fatal(err)
			}
			if err := a.SyncStore(); err != nil {
				t.Fatal(err)
			}
			if err := ms.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenMappingStore(dir, salt)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			return reopened.led.State(), fmt.Sprint(a.sess.IPMapping())
		}
		one, oneMap := run(1)
		four, fourMap := run(4)
		if len(one.IPs) == 0 || len(one.Words) == 0 {
			t.Fatalf("stateless=%v: ledger holds %d IP pairs and %d words", stateless, len(one.IPs), len(one.Words))
		}
		if oneMap != fourMap {
			t.Errorf("stateless=%v: IPMapping differs between 1 and 4 workers", stateless)
		}
		if !stateless && !reflect.DeepEqual(one.IPs, four.IPs) {
			t.Errorf("shaped tree: ledger IP pairs differ in content or order between 1 and 4 workers")
		}
		for _, st := range []*store.State{&one, &four} {
			sort.Slice(st.IPs, func(i, j int) bool { return st.IPs[i].In < st.IPs[j].In })
			sort.Strings(st.ASNs)
			sort.Strings(st.Words)
			sort.Slice(st.OrigIPs, func(i, j int) bool { return st.OrigIPs[i] < st.OrigIPs[j] })
		}
		if !reflect.DeepEqual(one, four) {
			t.Errorf("stateless=%v: ledger record sets differ between 1 and 4 workers", stateless)
		}
	}
}
