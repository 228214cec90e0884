package anonymizer

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"confanon/internal/metrics"
)

// TestStatsAddCoversEveryField is the guard the dense representation
// traded the reflective merge for: it walks Stats with reflection and
// fails if a field exists that Add, a Session's atomic snapshot
// (Session.Stats) or its metrics collector does not carry. Exported
// int64 scalars are each set to a distinct value through reflection, so
// a dropped or crossed field shows; the unexported fields must be
// exactly the known per-rule arrays, which are exercised through their
// accessors. Adding a field to Stats without listing it in statScalars
// fails here instead of silently dropping the counter.
func TestStatsAddCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	knownUnexported := map[string]bool{"rules": true, "ruleHits": true, "ruleTimeNs": true}
	var src Stats
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			if !knownUnexported[f.Name] {
				t.Errorf("unexported field %s is not covered by Add's per-rule merge; extend Add and this test", f.Name)
			}
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("exported field %s has type %s; Add only merges int64 scalars — extend Add and this test", f.Name, f.Type)
			continue
		}
		reflect.ValueOf(&src).Elem().Field(i).SetInt(int64(1000 + i))
	}
	var dst Stats
	dst.Add(src)
	sess := Compile(Options{Salt: []byte("stats")}).NewSession()
	reg := metrics.NewRegistry()
	sess.SetMetrics(reg)
	sess.stats.Add(src)
	exposed := map[float64]bool{}
	for _, v := range reg.Counters() {
		exposed[v] = true
	}
	snap := sess.Stats()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		want := int64(1000 + i)
		if got := reflect.ValueOf(dst).Field(i).Int(); got != want {
			t.Errorf("Add carried field %s as %d, want %d", f.Name, got, want)
		}
		if got := reflect.ValueOf(snap).Field(i).Int(); got != want {
			t.Errorf("Session.Stats carried field %s as %d, want %d", f.Name, got, want)
		}
		if !exposed[float64(want)] {
			t.Errorf("the metrics collector exposes no series for field %s", f.Name)
		}
	}

	// The per-rule arrays, via their public surface.
	src, dst = Stats{}, Stats{}
	src.AddRuleHit(RuleBanner, 3)
	src.AddRuleTime(RuleBanner, 5*time.Millisecond)
	dst.Add(src)
	if dst.Hits(RuleBanner) != 3 || dst.Time(RuleBanner) != 5*time.Millisecond {
		t.Errorf("Add dropped per-rule counters: hits=%d time=%s", dst.Hits(RuleBanner), dst.Time(RuleBanner))
	}

	// The rule set: a zero destination takes the source's.
	rs := &ruleSet{}
	dst = Stats{}
	dst.Add(Stats{rules: rs})
	if dst.rules != rs {
		t.Error("Add dropped the source's rule set")
	}
}

// TestStatsAddConcurrentMerge hammers one shared destination from 8
// goroutines — the parallel-corpus merge shape — and requires exact
// totals. Run under -race this also proves the atomic merge publishes
// no data race.
func TestStatsAddConcurrentMerge(t *testing.T) {
	var src Stats
	src.Files = 1
	src.Lines = 3
	src.TokensHashed = 5
	src.AddRuleHit(RuleBanner, 2)
	src.AddRuleTime(RuleBanner, 7*time.Nanosecond)

	const workers = 8
	const rounds = 1000
	var dst Stats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				dst.Add(src)
			}
		}()
	}
	wg.Wait()

	const n = workers * rounds
	if dst.Files != n || dst.Lines != 3*n || dst.TokensHashed != 5*n {
		t.Errorf("scalar totals off: files=%d lines=%d hashed=%d, want %d/%d/%d",
			dst.Files, dst.Lines, dst.TokensHashed, n, 3*n, 5*n)
	}
	if dst.Hits(RuleBanner) != 2*n || dst.Time(RuleBanner) != 7*n*time.Nanosecond {
		t.Errorf("per-rule totals off: hits=%d time=%d, want %d/%d",
			dst.Hits(RuleBanner), dst.Time(RuleBanner), 2*n, 7*n)
	}
}
