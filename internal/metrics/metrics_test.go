package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("x_total", "")
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("files_total", "files by status", "status")
	v.With("ok").Add(3)
	v.With("failed").Inc()
	if v.With("ok").Value() != 3 || v.With("failed").Value() != 1 {
		t.Fatal("labeled counters diverged")
	}
	// Ambiguous concatenations must stay distinct.
	v2 := r.CounterVec("pair_total", "", "a", "b")
	v2.With("x", "yz").Inc()
	if v2.With("xy", "z").Value() != 0 {
		t.Fatal(`("x","yz") collided with ("xy","z")`)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", 0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.5 + 5 + 50 + 0.05; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestCollect: collectors run at every scrape, their additions sum with
// each other and with the counter's own value, and a labeled series a
// collector creates mid-scrape is exposed in that same scrape.
func TestCollect(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("held_total", "counted elsewhere")
	c.Inc()
	vec := r.CounterVec("per_total", "", "k")
	n := int64(41)
	r.Collect(func(add func(*Counter, int64)) { add(c, n) })
	r.Collect(func(add func(*Counter, int64)) {
		add(c, 100)
		add(vec.With("late"), n)
	})
	n = 42
	if got := r.Counters(); got["held_total"] != 143 || got[`per_total{k="late"}`] != 42 {
		t.Fatalf("collected = %v, want held_total 143 and per_total{k=\"late\"} 42", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "held_total 143\n") {
		t.Fatalf("exposition lacks the collected value:\n%s", b.String())
	}
	// Collected values are read, never stored: the counter itself holds
	// only its own count, so repeated scrapes do not accumulate.
	if c.Value() != 1 || r.Counters()["held_total"] != 143 {
		t.Fatalf("counter = %d after scrapes, want 1", c.Value())
	}
}

// TestCountersAllocs bounds the cost of flattening a registry shaped
// like a golden-corpus run's (~160 series: scalar counters, per-rule
// vecs, stage histograms, two-label leak counters). The portal pays it
// once per job, so per-call escaper construction or repeated ID
// formatting inside the sort would show up here as hundreds of
// allocations per series.
func TestCountersAllocs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("scalar_%02d_total", i), "").Add(int64(i))
	}
	hits := r.CounterVec("rule_hits_total", "", "rule")
	ns := r.CounterVec("rule_time_ns_total", "", "rule")
	for i := 0; i < 40; i++ {
		hits.With(fmt.Sprintf("R%02d-rule", i)).Add(int64(i))
		ns.With(fmt.Sprintf("R%02d-rule", i)).Add(int64(i) * 1000)
	}
	stages := r.HistogramVec("stage_seconds", "", []float64{0.001, 0.01, 0.1}, "stage")
	for _, st := range []string{"prescan", "rewrite", "leakreport"} {
		stages.With(st).Observe(0.005)
	}
	leaks := r.CounterVec("leaks_total", "", "kind", "severity")
	leaks.With("ip", "confirmed").Inc()
	leaks.With("word", "likely_false_positive").Inc()
	extra := r.Counter("collected_total", "")
	r.Collect(func(add func(*Counter, int64)) { add(extra, 7) })

	series := len(r.Counters())
	allocs := testing.AllocsPerRun(20, func() { r.Counters() })
	if perSeries := allocs / float64(series); perSeries > 10 {
		t.Fatalf("Counters() = %.0f allocs for %d series (%.1f per series), want <= 10 per series",
			allocs, series, perSeries)
	}
}

func TestSnapshotRoundTripsThroughText(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "help with \"quotes\"").Add(7)
	r.CounterVec("lv_total", "", "kind", "file").With("leak", `a"b\c`).Add(2)
	r.Histogram("dur_seconds", "", 0.5, 2).Observe(1)
	r.Gauge("g", "").Set(-4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, b.String())
	}
	want := r.Counters()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d series, want %d", len(parsed), len(want))
	}
	for id, v := range want {
		got, ok := parsed[id]
		if !ok {
			t.Errorf("scrape missing series %s", id)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("series %s: scrape %v, report %v", id, got, v)
		}
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("h_seconds", "")
			v := r.CounterVec("vec_total", "", "w")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				v.With("a").Inc()
				v.With("b").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	vec := r.CounterVec("vec_total", "", "w")
	if vec.With("a").Value() != 8000 || vec.With("b").Value() != 8000 {
		t.Fatal("labeled counters lost increments")
	}
}

func TestSampleID(t *testing.T) {
	s := Sample{Name: "m", Labels: map[string]string{"b": "2", "a": "1"}}
	if got := s.ID(); got != `m{a="1",b="2"}` {
		t.Fatalf("ID = %q", got)
	}
	if got := (Sample{Name: "m"}).ID(); got != "m" {
		t.Fatalf("unlabeled ID = %q", got)
	}
}

func TestCounterExemplar(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "code")
	c := v.With("200")
	c.Inc()

	// No exemplar yet: the series renders without a comment.
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# exemplar") {
		t.Fatalf("exemplar comment before any was set:\n%s", buf.String())
	}

	c.SetExemplar(`request_id="abc123"`)
	if got := c.Exemplar(); got != `request_id="abc123"` {
		t.Fatalf("Exemplar() = %q", got)
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# exemplar req_total{code="200"} request_id="abc123"`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}

	// The exemplar is a comment: parsing, snapshots, and values are
	// unaffected by it.
	parsed, err := ParseText(buf.String())
	if err != nil {
		t.Fatalf("exposition with exemplar no longer parses: %v", err)
	}
	if parsed[`req_total{code="200"}`] != 1 {
		t.Fatalf("parsed value = %v, want 1", parsed[`req_total{code="200"}`])
	}

	// Clearing removes the comment again.
	c.SetExemplar("")
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# exemplar") {
		t.Fatalf("exemplar comment survived clearing:\n%s", buf.String())
	}
}
