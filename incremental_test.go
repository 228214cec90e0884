package confanon

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"confanon/internal/anonymizer"
	"confanon/internal/netgen"
	"confanon/internal/store"
)

// mutateCorpus derives the second-generation corpus the incremental run
// is diffed against: one file gets lines appended, one file gets a
// middle line edited, one file is deleted, one new file appears, and the
// rest are untouched.
func mutateCorpus(t *testing.T, v1 map[string]string) (v2 map[string]string, appended, edited, deleted, added string) {
	t.Helper()
	names := make([]string, 0, len(v1))
	for n := range v1 {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) < 4 {
		t.Fatalf("fixture corpus too small: %d files", len(names))
	}
	appended, edited, deleted = names[0], names[1], names[2]
	added = "zz-new-router-confg"

	v2 = make(map[string]string, len(v1))
	for n, text := range v1 {
		v2[n] = text
	}
	v2[appended] += "interface Loopback99\n ip address 10.99.88.77 255.255.255.255\n"
	lines := strings.Split(v2[edited], "\n")
	mid := len(lines) / 2
	lines[mid] = " description edited-for-incremental-run 172.31.45.6"
	v2[edited] = strings.Join(lines, "\n")
	delete(v2, deleted)
	v2[added] = "hostname zz-new.example.net\n!\ninterface Ethernet0\n ip address 10.99.88.78 255.255.255.0\n!\nrouter bgp 64999\n neighbor 10.99.88.77 remote-as 65001\nend\n"
	return v2, appended, edited, deleted, added
}

// TestIncrementalMatchesFullRun is the golden byte-identity test: an
// incremental re-run over a mutated corpus, seeded with the prior run's
// ledger state and file cache, must produce output byte-identical to a
// full ParallelCorpusContext run from the same restored state — at
// every worker count and under both IP schemes.
func TestIncrementalMatchesFullRun(t *testing.T) {
	for _, stateless := range []bool{false, true} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("stateless=%t/workers=%d", stateless, workers), func(t *testing.T) {
				n := netgen.Generate(netgen.Params{Seed: 4100, Kind: netgen.Backbone, Routers: 12})
				v1 := n.RenderAll()
				salt := []byte(n.Salt)
				opts := Options{Salt: salt, StatelessIP: stateless}
				ctx := context.Background()

				// Run 1: recording full run, ledger attached. Its output
				// must already match a plain parallel run (recording is
				// observation, not behavior).
				dir := t.TempDir()
				led, err := store.Open(dir, store.SaltFingerprint(salt))
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				a1 := New(opts)
				a1.sess.SetLedger(led)
				res1, cache, err := a1.IncrementalCorpusContext(ctx, v1, nil, workers)
				if err != nil || !res1.Ok() {
					t.Fatalf("recording run: err=%v failed=%v", err, res1.Failed())
				}
				plain, err := New(opts).ParallelCorpusContext(ctx, v1, workers)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				for name, want := range plain.Outputs() {
					if got := res1.Files[name].Text; got != want {
						t.Fatalf("recording run diverged from plain run on %s", name)
					}
				}
				if got, want := res1.Incremental.FilesFull, len(v1); got != want {
					t.Fatalf("recording run reused files: full=%d want %d", got, want)
				}
				if err := a1.sess.SyncLedger(); err != nil {
					t.Fatalf("SyncLedger: %v", err)
				}
				if err := led.Close(); err != nil {
					t.Fatalf("ledger close: %v", err)
				}

				// The cache must survive its serialization round-trip.
				blob, err := cache.Encode()
				if err != nil {
					t.Fatalf("cache encode: %v", err)
				}
				cache, err = DecodeCorpusCache(blob)
				if err != nil {
					t.Fatalf("cache decode: %v", err)
				}

				v2, appended, edited, deleted, added := mutateCorpus(t, v1)

				// Both consumers restore the same replayed ledger state.
				led2, err := store.Open(dir, store.SaltFingerprint(salt))
				if err != nil {
					t.Fatalf("reopen ledger: %v", err)
				}
				st := led2.State()
				if err := led2.Close(); err != nil {
					t.Fatalf("close reopened ledger: %v", err)
				}

				full := New(opts)
				if err := full.sess.RestoreState(st); err != nil {
					t.Fatalf("restore (full): %v", err)
				}
				fullRes, err := full.ParallelCorpusContext(ctx, v2, workers)
				if err != nil || !fullRes.Ok() {
					t.Fatalf("full re-run: err=%v failed=%v", err, fullRes.Failed())
				}

				inc := New(opts)
				if err := inc.sess.RestoreState(st); err != nil {
					t.Fatalf("restore (incremental): %v", err)
				}
				incRes, cache2, err := inc.IncrementalCorpusContext(ctx, v2, cache, workers)
				if err != nil || !incRes.Ok() {
					t.Fatalf("incremental re-run: err=%v failed=%v", err, incRes.Failed())
				}

				wantOut, gotOut := fullRes.Outputs(), incRes.Outputs()
				if len(gotOut) != len(wantOut) {
					t.Fatalf("file count: incremental %d, full %d", len(gotOut), len(wantOut))
				}
				for name, want := range wantOut {
					if got, ok := gotOut[name]; !ok || got != want {
						t.Errorf("incremental output differs for %s (present=%t)", name, ok)
					}
				}

				// The dispositions must be exactly as constructed: every
				// changed file runs in full.
				sum := incRes.Incremental
				if sum.FilesFull != 3 {
					t.Errorf("full files = %d, want 3 (%s appended, %s edited, %s added)", sum.FilesFull, appended, edited, added)
				}
				if want := len(v2) - 3; sum.FilesReused != want {
					t.Errorf("reused files = %d, want %d", sum.FilesReused, want)
				}
				changedLines := 0
				for _, n := range []string{appended, edited, added} {
					changedLines += len(anonymizer.SplitLines(v2[n]))
				}
				if sum.LinesRewritten != changedLines || sum.LinesReused == 0 {
					t.Errorf("line accounting %+v, want %d lines rewritten", sum, changedLines)
				}
				if _, ok := cache2.files[deleted]; ok {
					t.Errorf("deleted file %s still present in new cache", deleted)
				}

				// Run 3: nothing changed — everything is served from cache.
				inc2 := New(opts)
				if err := inc2.sess.RestoreState(st); err != nil {
					t.Fatalf("restore (idle): %v", err)
				}
				idleRes, _, err := inc2.IncrementalCorpusContext(ctx, v2, cache2, workers)
				if err != nil || !idleRes.Ok() {
					t.Fatalf("idle re-run: err=%v", err)
				}
				if got := idleRes.Incremental.FilesReused; got != len(v2) {
					t.Errorf("idle run reused %d of %d files", got, len(v2))
				}
				if idleRes.Incremental.LinesRewritten != 0 {
					t.Errorf("idle run rewrote %d lines", idleRes.Incremental.LinesRewritten)
				}
				for name, want := range wantOut {
					if got := idleRes.Files[name].Text; got != want {
						t.Errorf("idle run output differs for %s", name)
					}
				}
			})
		}
	}
}

// TestIncrementalCacheInvalidation: a cache recorded under different
// mapping-relevant options (here: an extra sensitive token) must be
// ignored wholesale, not half-trusted.
func TestIncrementalCacheInvalidation(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 4200, Kind: netgen.Enterprise, Routers: 6})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt)}
	ctx := context.Background()

	a1 := New(opts)
	res1, cache, err := a1.IncrementalCorpusContext(ctx, files, nil, 4)
	if err != nil || !res1.Ok() {
		t.Fatalf("recording run: err=%v", err)
	}

	a2 := New(opts)
	a2.AddRule("supersecret-community")
	res2, _, err := a2.IncrementalCorpusContext(ctx, files, cache, 4)
	if err != nil || !res2.Ok() {
		t.Fatalf("re-run: err=%v", err)
	}
	if !res2.Incremental.CacheInvalidated {
		t.Errorf("token-shifted cache was not invalidated")
	}
	if res2.Incremental.FilesReused != 0 || res2.Incremental.FilesFull != len(files) {
		t.Errorf("invalidated cache still reused files: %+v", res2.Incremental)
	}

	// Wrong salt: same wholesale rejection.
	a3 := New(Options{Salt: []byte("some-other-owner")})
	res3, _, err := a3.IncrementalCorpusContext(ctx, files, cache, 4)
	if err != nil || !res3.Ok() {
		t.Fatalf("wrong-salt run: err=%v", err)
	}
	if !res3.Incremental.CacheInvalidated || res3.Incremental.FilesReused != 0 {
		t.Errorf("wrong-salt cache was not invalidated: %+v", res3.Incremental)
	}
}

// TestIncrementalStrictRegatesReusedFiles: strict gating applies to
// cache-served files too — a token that becomes sensitive between runs
// must quarantine a file the engine never touched this run. (The
// fingerprint shift from AddRule forces reprocessing; to test the
// reused path specifically we instead poison the recorder by feeding a
// doctored extra file whose cleartext collides with a reused output.)
func TestIncrementalStrictRegatesReusedFiles(t *testing.T) {
	const target = "r1-confg"
	files := map[string]string{
		target: "hostname alpha\n!\ninterface Ethernet0\n ip address 8.8.1.1 255.255.255.0\n!\nrouter bgp 3320\n neighbor 8.8.1.2 remote-as 701\nend\n",
	}
	opts := Options{Salt: []byte("strict-regate"), Strict: true}
	ctx := context.Background()

	a1 := New(opts)
	res1, cache, err := a1.IncrementalCorpusContext(ctx, files, nil, 2)
	if err != nil || !res1.Ok() {
		t.Fatalf("recording run: err=%v files=%+v", err, res1.Files)
	}
	out := res1.Files[target].Text

	// Second corpus adds a file whose cleartext uses the PERMUTED ASN
	// from the reused file's output as an original ASN: the recorder
	// learns it, so the reused file's unchanged output now carries a
	// confirmed ASN collision and must be quarantined, cache hit or
	// not. (An IP collision would not do — a flagged IP that is a known
	// mapping output is classified as a likely false positive — and
	// hashed words are fragmented by the tokenizer, so neither kind can
	// confirm here.)
	var anonASN string
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "remote-as "); i >= 0 {
			anonASN = strings.TrimSpace(line[i+len("remote-as "):])
			break
		}
	}
	if anonASN == "" {
		t.Fatalf("no anonymized ASN found in output %q", out)
	}
	files2 := map[string]string{
		target:      files[target],
		"r2-poison": "hostname beta\n!\nrouter bgp " + anonASN + "\nend\n",
	}
	a2 := New(opts)
	if err := a2.LoadMapping(a1.SaveMapping()); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	res2, _, err := a2.IncrementalCorpusContext(ctx, files2, cache, 2)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if res2.Files[target].Status != FileQuarantined {
		t.Errorf("reused file escaped strict re-gating: status=%v", res2.Files[target].Status)
	}

	// And the full path agrees: same corpus, same restored state, same
	// quarantine set.
	a3 := New(opts)
	if err := a3.LoadMapping(a1.SaveMapping()); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	res3, err := a3.ParallelCorpusContext(ctx, files2, 2)
	if err != nil {
		t.Fatalf("full re-run: %v", err)
	}
	if got, want := res2.Quarantined(), res3.Quarantined(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("quarantine sets diverge: incremental %v, full %v", got, want)
	}
	// The poison file added the ASN to the recorder and the target's
	// output holds it, so the target is gated in full — and only it.
	if got := res2.Incremental.FilesGated; got != 1 {
		t.Errorf("FilesGated = %d, want 1", got)
	}
	if got, want := res2.Files[target].Leaks, res3.Files[target].Leaks; !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Errorf("target leaks diverge: incremental %v, full %v", got, want)
	}
}

// recordStrict runs a recording incremental run over files and returns
// its cache, through the codec, and the Session's mapping state.
func recordStrict(t *testing.T, opts Options, files map[string]string) (*CorpusCache, store.State) {
	t.Helper()
	a := New(opts)
	_, cache, err := a.IncrementalCorpusContext(context.Background(), files, nil, 2)
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	blob, err := cache.Encode()
	if err == nil {
		cache, err = DecodeCorpusCache(blob)
	}
	if err != nil {
		t.Fatalf("cache codec: %v", err)
	}
	return cache, a.sess.CaptureState()
}

// regate runs files against cache incrementally and in full, each on a
// strict Session restored from st, checks that both give every file the
// same status, output and leaks, and returns the incremental summary.
func regate(t *testing.T, opts Options, st store.State, files map[string]string, cache *CorpusCache) *IncrementalSummary {
	t.Helper()
	ctx := context.Background()
	opts.Strict = true
	full, inc := New(opts), New(opts)
	if err := full.sess.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := inc.sess.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	want, err := full.ParallelCorpusContext(ctx, files, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := inc.IncrementalCorpusContext(ctx, files, cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%d files, full run %d", len(got.Files), len(want.Files))
	}
	for name, w := range want.Files {
		if g := got.Files[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: incremental %v (%d leaks), full run %v (%d leaks)", name, g.Status, len(g.Leaks), w.Status, len(w.Leaks))
		}
	}
	return got.Incremental
}

// TestIncrementalEmptyDeltaSkipsGate: an edit that records no new value
// leaves the restored recorder as the cache recorded it, so no served
// file is gated, and the run still publishes what a full run does.
func TestIncrementalEmptyDeltaSkipsGate(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 4500, Kind: netgen.Enterprise, Routers: 5})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt), Strict: true}
	cache, st := recordStrict(t, opts, files)
	names := sortedNames(files)
	edited := maps.Clone(files)
	edited[names[0]] += "!\n"
	sum := regate(t, opts, st, edited, cache)
	if sum.FilesGated != 0 || sum.FilesReused != len(files)-1 || sum.FilesFull != 1 {
		t.Errorf("summary %+v, want %d reused, 1 full, 0 gated", sum, len(files)-1)
	}
}

// TestIncrementalGateFailsClosed: every served file is gated in full
// when the cache cannot vouch for the restored recorder, and a file the
// cache quarantined is always gated in full.
func TestIncrementalGateFailsClosed(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 4600, Kind: netgen.Enterprise, Routers: 4})
	files := n.RenderAll()
	files["q-confg"] = ipv6Config
	opts := Options{Salt: []byte(n.Salt), Strict: true}
	cache, st := recordStrict(t, opts, files)
	if !reflect.DeepEqual(cache.gate.quarantined, []string{"q-confg"}) {
		t.Fatalf("recorded quarantine set %v, want [q-confg]", cache.gate.quarantined)
	}

	t.Run("quarantined", func(t *testing.T) {
		if sum := regate(t, opts, st, files, cache); sum.FilesGated != 1 {
			t.Errorf("FilesGated = %d, want 1 (the quarantined file)", sum.FilesGated)
		}
	})
	t.Run("lenient", func(t *testing.T) {
		lenient := opts
		lenient.Strict = false
		cache, st := recordStrict(t, lenient, files)
		if sum := regate(t, opts, st, files, cache); sum.FilesGated != len(files) {
			t.Errorf("FilesGated = %d, want %d", sum.FilesGated, len(files))
		}
	})
	t.Run("strict-flag", func(t *testing.T) {
		other := *cache
		other.gate.strict = false
		if sum := regate(t, opts, st, files, &other); sum.FilesGated != len(files) {
			t.Errorf("FilesGated = %d, want %d", sum.FilesGated, len(files))
		}
	})
	t.Run("sizes", func(t *testing.T) {
		grown := st
		grown.Words = append(slices.Clip(st.Words), "zz-recorded-elsewhere")
		if sum := regate(t, opts, grown, files, cache); sum.FilesGated != len(files) {
			t.Errorf("FilesGated = %d, want %d", sum.FilesGated, len(files))
		}
	})
	t.Run("revision", func(t *testing.T) {
		other := *cache
		other.gate.revision++
		if sum := regate(t, opts, st, files, &other); sum.FilesGated != len(files) {
			t.Errorf("FilesGated = %d, want %d", sum.FilesGated, len(files))
		}
	})
}

// BenchmarkIncremental sweeps the edited-line fraction of a second-
// generation corpus against the prior run's cache. Editing the middle
// line of K of the N files edits ~K·L/2 lines, so K = 2·f·N puts the
// edited fraction at ~f; each edited file runs again whole, so the
// rewritten fraction is ~2f. Each iteration restores the prior mapping
// and runs the incremental path end to end — classify, census over the
// changed files, fill, strict re-gate — the same work
// `confanon -incremental` does per run.
func BenchmarkIncremental(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 1202, Kind: netgen.Backbone, Routers: 48})
	files := n.RenderAll()
	lines := n.TotalLines()
	opts := Options{Salt: []byte(n.Salt)}

	rec := New(opts)
	_, cache, err := rec.IncrementalCorpusContext(context.Background(), files, nil, 4)
	if err != nil {
		b.Fatal(err)
	}
	state := rec.SaveMapping()

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, pct := range []int{1, 10, 50} {
		k := (2*pct*len(names) + 99) / 100
		if k > len(names) {
			k = len(names)
		}
		edited := make(map[string]string, len(files))
		for name, text := range files {
			edited[name] = text
		}
		for i := 0; i < k; i++ {
			ls := strings.Split(edited[names[i]], "\n")
			ls[len(ls)/2] = fmt.Sprintf(" description bench-edit 10.200.%d.1", i)
			edited[names[i]] = strings.Join(ls, "\n")
		}
		b.Run(fmt.Sprintf("changed=%d%%", pct), func(b *testing.B) {
			var reused, rewritten int
			for i := 0; i < b.N; i++ {
				a := New(opts)
				if err := a.LoadMapping(state); err != nil {
					b.Fatal(err)
				}
				res, _, err := a.IncrementalCorpusContext(context.Background(), edited, cache, 4)
				if err != nil {
					b.Fatal(err)
				}
				reused, rewritten = res.Incremental.LinesReused, res.Incremental.LinesRewritten
			}
			b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
			b.ReportMetric(float64(reused)/float64(reused+rewritten)*100, "reused%")
		})
	}
}

// BenchmarkIncrementalVsFull times one `confanon -strict -state-dir
// -incremental -workers 2` run against one plain `-state-dir` run over
// the same corpus with 1% of its lines edited (the middle line of the
// first 2% of files), each from a fresh copy of the ledger the unedited
// corpus recorded. Both sides open the ledger, restore it, run and
// commit; the incremental side also decodes the prior file cache and
// encodes the next. The pairs alternate within the loop, and speedup
// is the full run's time over the incremental run's.
func BenchmarkIncrementalVsFull(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 1203, Kind: netgen.Backbone, Routers: 64})
	files := n.RenderAll()
	salt := []byte(n.Salt)
	opts := Options{Salt: salt, Strict: true}
	const workers = 2

	// session runs f on a session attached to the ledger in dir.
	session := func(dir string, f func(a *Anonymizer) error) {
		ms, err := OpenMappingStore(dir, salt)
		if err != nil {
			b.Fatal(err)
		}
		a := New(opts)
		if err := a.UseStore(ms); err != nil {
			b.Fatal(err)
		}
		if err := f(a); err != nil {
			b.Fatal(err)
		}
		if err := a.SyncStore(); err != nil {
			b.Fatal(err)
		}
		if err := ms.Close(); err != nil {
			b.Fatal(err)
		}
	}
	pristine := b.TempDir()
	var blob []byte
	session(pristine, func(a *Anonymizer) error {
		_, cache, err := a.IncrementalCorpusContext(context.Background(), files, nil, workers)
		if err == nil {
			blob, err = cache.Encode()
		}
		return err
	})
	restore := func() string {
		dir := b.TempDir()
		entries, err := os.ReadDir(pristine)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(pristine, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o600)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return dir
	}

	names := sortedNames(files)
	edited := make(map[string]string, len(files))
	for name, text := range files {
		edited[name] = text
	}
	for i, name := range names[:(2*len(names)+99)/100] {
		ls := strings.Split(edited[name], "\n")
		ls[len(ls)/2] = fmt.Sprintf(" description bench-edit 10.201.%d.1", i)
		edited[name] = strings.Join(ls, "\n")
	}

	var full, incr time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fullDir, incrDir := restore(), restore()
		b.StartTimer()
		t0 := time.Now()
		session(fullDir, func(a *Anonymizer) error {
			_, err := a.ParallelCorpusContext(context.Background(), edited, workers)
			return err
		})
		t1 := time.Now()
		session(incrDir, func(a *Anonymizer) error {
			prior, err := DecodeCorpusCache(blob)
			if err != nil {
				return err
			}
			_, next, err := a.IncrementalCorpusContext(context.Background(), edited, prior, workers)
			if err == nil {
				_, err = next.Encode()
			}
			return err
		})
		full, incr = full+t1.Sub(t0), incr+time.Since(t1)
	}
	b.ReportMetric(float64(full.Milliseconds())/float64(b.N), "full-ms/op")
	b.ReportMetric(float64(incr.Milliseconds())/float64(b.N), "incr-ms/op")
	b.ReportMetric(float64(full)/float64(incr), "speedup")
	b.ReportMetric(float64(n.TotalLines()), "lines")
}

// TestCorpusCacheRoundTrip: built entries — an ordinary output, the
// output of an empty file, one with bytes a varint or a schema line
// could be confused with — and the gate record survive Encode and
// decode unchanged, and a decoded cache re-encodes to the same bytes. A
// gate record whose quarantined names are out of order does not decode.
func TestCorpusCacheRoundTrip(t *testing.T) {
	gate := gateRecord{strict: true, revision: anonymizer.GateRevision,
		sizes: anonymizer.RecorderSizes{ASNs: 1, Words: 200, IPs: 3}, quarantined: []string{"", "bytes", "r1"}}
	c := &CorpusCache{saltFP: "s", optsFP: "o", gate: gate, files: map[string]*fileCache{
		"r1":    {sum: [32]byte{1}, text: "hostname x\n ip address 1.2.3.4 255.0.0.0\nend\n"},
		"empty": {sum: [32]byte{2}, text: "\n"},
		"bytes": {sum: [32]byte{3, 0xff}, text: "\x00\x80\xff" + CorpusCacheSchema + "\n"},
		"":      {sum: [32]byte{4}, text: ""},
	}}
	blob, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpusCache(blob)
	if err != nil {
		t.Fatalf("DecodeCorpusCache: %v", err)
	}
	if got.saltFP != c.saltFP || got.optsFP != c.optsFP || !reflect.DeepEqual(got.gate, gate) || len(got.files) != len(c.files) {
		t.Fatalf("header or file count changed: %q %q %+v %d", got.saltFP, got.optsFP, got.gate, len(got.files))
	}
	for name, want := range c.files {
		fc := got.files[name]
		if fc == nil || fc.sum != want.sum || fc.text != want.text {
			t.Fatalf("%q: entry %+v, want %+v", name, fc, want)
		}
	}
	again, err := got.Encode()
	if err != nil || string(again) != string(blob) {
		t.Errorf("re-encoding a decoded cache changed its bytes (err=%v)", err)
	}
	c.gate.quarantined = []string{"r1", "bytes"}
	if blob, err = c.Encode(); err == nil {
		_, err = DecodeCorpusCache(blob)
	}
	if err != errCacheMalformed {
		t.Errorf("unsorted quarantine names: err = %v, want %v", err, errCacheMalformed)
	}
}

func TestTextHasherMatchesSum256(t *testing.T) {
	th := newTextHasher()
	long := strings.Repeat("interface Serial0/0\n ip address 10.1.2.3 255.255.255.0\n", 500)
	if len(long) <= len(th.buf) {
		t.Fatalf("long input %d bytes does not exceed the %d-byte buffer", len(long), len(th.buf))
	}
	for _, text := range []string{"", "hostname r1\n", long, long + "!"} {
		if got, want := th.sum(text), sha256.Sum256([]byte(text)); got != want {
			t.Errorf("sum of %d bytes = %x, want %x", len(text), got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { th.sum(long) }); allocs != 0 {
		t.Errorf("sum allocates %.1f times per call, want 0", allocs)
	}
}
