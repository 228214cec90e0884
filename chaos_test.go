package confanon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"confanon/internal/anonymizer"
	"confanon/internal/store"
)

// chaosCorpus is a small deterministic corpus; the "poison" file is the
// one the fault hook detonates.
func chaosCorpus() map[string]string {
	return map[string]string{
		"r1":     "hostname r1\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n",
		"r2":     "hostname r2\nrouter bgp 701\n neighbor 12.1.2.4 remote-as 1239\n",
		"r3":     "hostname r3\naccess-list 101 permit tcp host 12.1.2.5 any eq 80\n",
		"r4":     "hostname r4\nroute-map m permit 10\n set community 701:100\n",
		"r5":     "hostname r5\nip route 12.4.0.0 255.255.0.0 Null0\n",
		"poison": "hostname poison\ninterface Serial0\n ip address 12.9.9.9 255.255.255.0\n",
	}
}

// armPoison injects a panic on the named file's given line for the
// duration of the test.
func armPoison(t *testing.T, name string, line int) {
	t.Helper()
	anonymizer.SetFaultHook(func(n string, l int) {
		if n == name && l == line {
			panic("injected chaos")
		}
	})
	t.Cleanup(func() { anonymizer.SetFaultHook(nil) })
}

// waitGoroutines waits for the goroutine count to drop back to the
// baseline (small slack for runtime housekeeping).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParallelCorpusContextIsolatesPanic(t *testing.T) {
	files := chaosCorpus()
	opts := Options{Salt: []byte("chaos")}
	baseline := runtime.NumGoroutine()

	// Reference run: the same corpus minus the poison file, no faults.
	clean := make(map[string]string, len(files)-1)
	for n, text := range files {
		if n != "poison" {
			clean[n] = text
		}
	}
	wantOut, wantStats := mustParallel(t, opts, clean, 4)

	armPoison(t, "poison", 2)
	res, err := ParallelCorpusContext(context.Background(), opts, files, 4)
	if err != nil {
		t.Fatalf("batch returned fatal error: %v", err)
	}
	waitGoroutines(t, baseline)

	if len(res.Files) != len(files) {
		t.Fatalf("result covers %d files, want %d", len(res.Files), len(files))
	}
	p := res.Files["poison"]
	if p.Status != FileFailed || p.Err == nil {
		t.Fatalf("poison file not failed: %+v", p)
	}
	if p.Err.Name != "poison" || p.Err.Line != 2 {
		t.Errorf("FileError location = (%q, %d), want (poison, 2)", p.Err.Name, p.Err.Line)
	}
	var pe *PanicError
	if !errors.As(p.Err, &pe) {
		t.Errorf("cause %v is not a PanicError", p.Err.Cause)
	}

	got := res.Outputs()
	if len(got) != len(wantOut) {
		t.Fatalf("%d surviving outputs, want %d", len(got), len(wantOut))
	}
	for n, want := range wantOut {
		if got[n] != want {
			t.Errorf("surviving file %s differs from clean run", n)
		}
	}
	// Merged stats describe exactly the surviving files: the poisoned
	// file's partial counts were dropped.
	if res.Stats.Files != wantStats.Files || res.Stats.Lines != wantStats.Lines ||
		res.Stats.WordsTotal != wantStats.WordsTotal {
		t.Errorf("merged stats (files=%d lines=%d words=%d) != clean run (files=%d lines=%d words=%d)",
			res.Stats.Files, res.Stats.Lines, res.Stats.WordsTotal,
			wantStats.Files, wantStats.Lines, wantStats.WordsTotal)
	}
}

func TestParallelCorpusDropsOnlyPoisonedFile(t *testing.T) {
	// The publishable outputs of a poisoned corpus drop exactly the
	// poisoned file.
	armPoison(t, "poison", 2)
	res, err := ParallelCorpusContext(context.Background(), Options{Salt: []byte("chaos")}, chaosCorpus(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("result claims clean despite poisoned file")
	}
	out := res.Outputs()
	if _, ok := out["poison"]; ok {
		t.Error("poisoned file was emitted")
	}
	if len(out) != len(chaosCorpus())-1 {
		t.Errorf("%d files emitted, want %d", len(out), len(chaosCorpus())-1)
	}
}

func TestCorpusContextIsolatesPanic(t *testing.T) {
	armPoison(t, "poison", 2)
	a := New(Options{Salt: []byte("chaos")})
	res, err := a.CorpusContext(context.Background(), chaosCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("result claims clean despite poisoned file")
	}
	failed := res.Failed()
	if len(failed) != 1 || failed[0].Name != "poison" {
		t.Fatalf("failed = %v, want exactly the poison file", failed)
	}
	if len(res.Outputs()) != len(chaosCorpus())-1 {
		t.Errorf("surviving outputs missing: %d", len(res.Outputs()))
	}
}

func TestParallelCorpusContextCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ParallelCorpusContext(ctx, Options{Salt: []byte("c")}, chaosCorpus(), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Files) == len(chaosCorpus()) {
		t.Log("note: all files finished before cancellation was observed")
	}
	waitGoroutines(t, baseline)
}

func TestCorpusContextStrictQuarantinesLeakingFile(t *testing.T) {
	files := map[string]string{
		"clean": "hostname r9\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n",
		// The second 7018 sits in a context no rule recognizes and
		// survives anonymization — the seeded leak of §6.1.
		"leaky": "router bgp 7018\nodd command with 7018 tail\n",
	}
	a := New(Options{Salt: []byte("s"), Strict: true})
	res, err := a.CorpusContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quarantined()
	if len(q) != 1 || q[0] != "leaky" {
		t.Fatalf("quarantined = %v, want exactly [leaky]", q)
	}
	fr := res.Files["leaky"]
	if len(fr.Leaks) == 0 || fr.Text != "" {
		t.Errorf("quarantined file must carry leaks and no output: %+v", fr)
	}
	out := res.Outputs()
	if _, ok := out["leaky"]; ok {
		t.Error("quarantined file was emitted")
	}
	if _, ok := out["clean"]; !ok {
		t.Error("clean file missing from outputs")
	}
}

func TestParallelCorpusContextStrict(t *testing.T) {
	files := map[string]string{
		"clean": "hostname r9\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n",
		"leaky": "router bgp 7018\nodd command with 7018 tail\n",
	}
	res, err := ParallelCorpusContext(context.Background(),
		Options{Salt: []byte("s"), Strict: true}, files, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q := res.Quarantined(); len(q) != 1 || q[0] != "leaky" {
		t.Fatalf("quarantined = %v, want exactly [leaky]", q)
	}
}

// brokenReader yields one line then fails.
type brokenReader struct{ fed bool }

func (r *brokenReader) Read(p []byte) (int, error) {
	if !r.fed {
		r.fed = true
		return copy(p, "hostname half\n"), nil
	}
	return 0, errors.New("read: medium vanished")
}

// chaosSink is an in-memory WriteCloser with injectable failures. When
// scrape is set it is called inside every Write and Close, before the
// injected failure, with the sink's file name.
type chaosSink struct {
	name      string
	buf       strings.Builder
	failWrite bool
	failClose bool
	scrape    func(where string)
}

func (s *chaosSink) Write(p []byte) (int, error) {
	if s.scrape != nil {
		s.scrape(s.name + " Write")
	}
	if s.failWrite {
		return 0, errors.New("write: quota exceeded")
	}
	return s.buf.Write(p)
}

func (s *chaosSink) Close() error {
	if s.scrape != nil {
		s.scrape(s.name + " Close")
	}
	if s.failClose {
		return errors.New("close: fsync failed")
	}
	return nil
}

// TestStreamCorpusContextIsolatesFileFaults: a panic, a failing reader, a
// sink that cannot be opened, and a sink that fails mid-write or on close
// each cost exactly their own file, in both stream modes. A failed file
// never reaches the Session: a registry scraped inside every sink Write
// and Close, and once after the run, never reads a files or lines count
// lower than the scrape before it, and ends at the survivors' counts.
// "closefails" — a 3-line file whose sink fails on close — comes first,
// so a driver that merged its counts and then took them back would read
// 3 lines inside its Close and 0 at the next scrape.
func TestStreamCorpusContextIsolatesFileFaults(t *testing.T) {
	armPoison(t, "panics", 1)
	order := []string{"closefails", "badread", "good1", "badwrite", "badclose", "nosink", "panics", "good2"}
	texts := map[string]string{
		"closefails": "hostname cf\ninterface Ethernet1\n ip address 12.7.7.7 255.255.255.0\n",
		"good1":      "hostname g1\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n",
		"badwrite":   "hostname bw\n",
		"badclose":   "hostname bc\n",
		"nosink":     "hostname ns\n",
		"panics":     "hostname pp\n",
		"good2":      "hostname g2\nrouter bgp 701\n",
	}
	failed := []string{"closefails", "badread", "badwrite", "badclose", "nosink", "panics"}
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%t", strict), func(t *testing.T) {
			reg := NewMetricsRegistry()
			var last [2]float64
			scrape := func(where string) {
				c := reg.Counters()
				now := [2]float64{c["confanon_files_processed_total"], c["confanon_lines_total"]}
				for k, what := range []string{"files", "lines"} {
					if now[k] < last[k] {
						t.Errorf("%s: %s counter fell from %v to %v", where, what, last[k], now[k])
					}
				}
				last = now
			}
			sinks := map[string]*chaosSink{}
			i := 0
			next := func() (string, io.Reader, error) {
				if i >= len(order) {
					return "", nil, io.EOF
				}
				name := order[i]
				i++
				if name == "badread" {
					return name, &brokenReader{}, nil
				}
				return name, strings.NewReader(texts[name]), nil
			}
			sink := func(name string) (io.WriteCloser, error) {
				if name == "nosink" {
					return nil, errors.New("mkdir: permission denied")
				}
				s := &chaosSink{name: name, scrape: scrape,
					failWrite: name == "badwrite", failClose: name == "badclose" || name == "closefails"}
				sinks[name] = s
				return s, nil
			}

			a := New(Options{Salt: []byte("sc"), StatelessIP: true, Strict: strict, Metrics: reg})
			ferrs, err := a.StreamCorpusContext(context.Background(), next, sink)
			if err != nil {
				t.Fatalf("run-fatal error: %v", err)
			}
			got := map[string]bool{}
			for _, fe := range ferrs {
				got[fe.Name] = true
			}
			for _, want := range failed {
				if !got[want] {
					t.Errorf("no FileError for %s (have %v)", want, ferrs)
				}
			}
			if len(ferrs) != len(failed) {
				t.Errorf("%d FileErrors, want %d: %v", len(ferrs), len(failed), ferrs)
			}

			// The surviving files streamed byte-identically to a clean run.
			ref := New(Options{Salt: []byte("sc"), StatelessIP: true})
			for _, name := range []string{"good1", "good2"} {
				if want := ref.File(texts[name]); sinks[name].buf.String() != want {
					t.Errorf("surviving stream %s differs from clean run", name)
				}
			}
			// Stats cover only the files that completed: the 2 good ones,
			// none of the failed ones — the half-read and half-written
			// ones and those whose sink failed after a clean rewrite too.
			s := a.Stats()
			if s.Files != 2 {
				t.Errorf("stats.Files = %d, want 2 survivors", s.Files)
			}
			scrape("after the run")
			if want := [2]float64{2, 5}; last != want || s.Lines != 5 {
				t.Errorf("final files/lines counters = %v (Stats.Lines %d), want %v", last, s.Lines, want)
			}
		})
	}
}

func TestStreamCorpusContextStrictQuarantine(t *testing.T) {
	order := []string{"leaky"}
	i := 0
	next := func() (string, io.Reader, error) {
		if i >= len(order) {
			return "", nil, io.EOF
		}
		i++
		return "leaky", strings.NewReader("router bgp 7018\nodd command with 7018 tail\n"), nil
	}
	opened := false
	sink := func(name string) (io.WriteCloser, error) {
		opened = true
		return &chaosSink{}, nil
	}
	a := New(Options{Salt: []byte("s"), StatelessIP: true, Strict: true})
	ferrs, err := a.StreamCorpusContext(context.Background(), next, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(ferrs) != 1 || !errors.Is(ferrs[0], ErrQuarantined) {
		t.Fatalf("ferrs = %v, want one ErrQuarantined", ferrs)
	}
	if opened {
		t.Error("sink was opened for a quarantined file")
	}
}

// TestChaosRollbackLeavesNoLedgerEntries: a file that dies mid-way must
// leave zero provenance records — its decisions are dropped with its
// counts — while its span survives, marked failed. Checked on the
// corpus driver at one and four workers, where the census records the
// panic and the fill fails the file, and on the serial reference, where
// the rewrite fails it directly.
func TestChaosRollbackLeavesNoLedgerEntries(t *testing.T) {
	armPoison(t, "poison", 2)
	files := chaosCorpus()

	check := func(t *testing.T, tr *Tracer, wantOp string) {
		t.Helper()
		for _, d := range tr.Ledger() {
			if d.File == "poison" {
				t.Fatalf("rolled-back file left a ledger entry: %+v", d)
			}
		}
		decided := map[string]bool{}
		for _, d := range tr.Ledger() {
			decided[d.File] = true
		}
		for n := range files {
			if n != "poison" && !decided[n] {
				t.Errorf("surviving file %s has no ledger entries", n)
			}
		}
		var failed *Span
		for _, s := range tr.Spans() {
			if s.Kind == "file" && s.Name == "poison" && s.Status == "failed" {
				failed = s
			}
		}
		if failed == nil {
			t.Fatal("poisoned file has no failed span — failures must be traced, never dropped")
		}
		if failed.Attr("op") != wantOp {
			t.Errorf("failed span op = %q, want %q", failed.Attr("op"), wantOp)
		}
		if failed.Attr("line") != "2" {
			t.Errorf("failed span line attr = %q, want 2", failed.Attr("line"))
		}
	}

	for name, workers := range map[string]int{"parallel": 4, "one-worker": 1} {
		t.Run(name, func(t *testing.T) {
			tr := NewTracer()
			_, err := ParallelCorpusContext(context.Background(),
				Options{Salt: []byte("chaos"), Tracer: tr}, files, workers)
			if err != nil {
				t.Fatal(err)
			}
			// The census keeps the panic in the file's template; the traced
			// fill fails the file as a "rewrite" unit at the census's line.
			check(t, tr, "rewrite")
		})
	}
	t.Run("serial", func(t *testing.T) {
		tr := NewTracer()
		serialCorpus(New(Options{Salt: []byte("chaos"), Tracer: tr}), files)
		// Serially the fault hook fires in the census of both the pinning
		// unit and the rewrite; the rewrite's census dies at line 2 and
		// its unit fails the file there.
		check(t, tr, "rewrite")
	})
}

// runStoreCorpus opens the mapping ledger in dir, runs the corpus
// through a store-backed session, commits, and closes — one clean
// "process lifetime" in the durable-store timeline.
func runStoreCorpus(t *testing.T, dir string, salt []byte, files map[string]string, workers int) map[string]string {
	t.Helper()
	ms, err := OpenMappingStore(dir, salt)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	a := New(Options{Salt: salt})
	if err := a.UseStore(ms); err != nil {
		t.Fatal(err)
	}
	res, err := a.ParallelCorpusContext(context.Background(), files, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("store-backed run not clean: %v", res.Failed())
	}
	if err := a.SyncStore(); err != nil {
		t.Fatal(err)
	}
	return res.Outputs()
}

// TestChaosStoreCrashRecovery kills the ledger's commit protocol at both
// sides of its durability point and checks the restart semantics the
// store promises: a crash between append and the commit record loses
// exactly the in-flight file (the uncommitted tail is discarded on
// replay), a crash after the fsynced commit record loses nothing — and
// in both timelines a restarted replica replays to a state whose outputs
// are byte-identical to a process that never crashed.
func TestChaosStoreCrashRecovery(t *testing.T) {
	salt := []byte("chaos-store")
	v1 := chaosCorpus()
	// The delta upload carries addresses and an ASN v1 never saw, so its
	// commit appends fresh records — the tail the crash interrupts.
	delta := map[string]string{
		"r-new": "hostname r-new\ninterface Serial1\n ip address 12.77.3.10 255.255.255.0\nrouter bgp 65001\n neighbor 12.77.3.9 remote-as 3356\n",
	}

	// Reference timeline: v1 then the delta, no crashes.
	refDir := t.TempDir()
	wantV1 := runStoreCorpus(t, refDir, salt, v1, 4)
	wantDelta := runStoreCorpus(t, refDir, salt, delta, 1)

	for _, tc := range []struct {
		event   string // crash point inside Ledger.Commit
		durable bool   // does the delta's mapping survive the crash?
	}{
		{"commit", false},   // power lost after append, before the commit record
		{"committed", true}, // power lost right after the fsynced commit record
	} {
		t.Run("crash-at-"+tc.event, func(t *testing.T) {
			dir := t.TempDir()
			if got := runStoreCorpus(t, dir, salt, v1, 4); len(got) != len(wantV1) {
				t.Fatalf("v1 run emitted %d files, want %d", len(got), len(wantV1))
			}

			// Crashed process: the hook detonates inside Commit, the file
			// is reported failed, and the session and ledger are abandoned
			// without Close — nothing after the panic reaches the disk.
			ms2, err := OpenMappingStore(dir, salt)
			if err != nil {
				t.Fatal(err)
			}
			n1 := len(ms2.led.State().IPs)
			if n1 == 0 {
				t.Fatal("v1 run committed no IP pairs")
			}
			a2 := New(Options{Salt: salt})
			if err := a2.UseStore(ms2); err != nil {
				t.Fatal(err)
			}
			store.SetCrashHook(func(ev string) {
				if ev == tc.event {
					store.SetCrashHook(nil)
					panic("injected crash: power lost inside Commit at " + ev)
				}
			})
			t.Cleanup(func() { store.SetCrashHook(nil) })
			res, err := a2.CorpusContext(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			if fr := res.Files["r-new"]; fr.Status != FileFailed {
				t.Fatalf("file that crashed at its commit point not failed: %+v", fr)
			}

			// Restart: a fresh process replays the directory.
			ms3, err := OpenMappingStore(dir, salt)
			if err != nil {
				t.Fatal(err)
			}
			defer ms3.Close()
			n3 := len(ms3.led.State().IPs)
			if tc.durable && n3 <= n1 {
				t.Errorf("fsynced commit lost: restart replayed %d IP pairs, want > %d", n3, n1)
			}
			if !tc.durable && n3 != n1 {
				t.Errorf("uncommitted tail survived restart: %d IP pairs, want %d", n3, n1)
			}

			a3 := New(Options{Salt: salt})
			if err := a3.UseStore(ms3); err != nil {
				t.Fatal(err)
			}
			res3, err := a3.ParallelCorpusContext(context.Background(), delta, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got := res3.Outputs()["r-new"]; got != wantDelta["r-new"] {
				t.Error("post-restart delta output differs from the crash-free timeline")
			}
			// The recovered mapping also reproduces every pre-crash file.
			res1, err := a3.ParallelCorpusContext(context.Background(), v1, 4)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range wantV1 {
				if res1.Outputs()[name] != want {
					t.Errorf("recovered mapping rewrote %s differently from the crash-free timeline", name)
				}
			}
			if err := a3.SyncStore(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStreamCorpusContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := New(Options{Salt: []byte("s"), StatelessIP: true})
	_, err := a.StreamCorpusContext(ctx,
		func() (string, io.Reader, error) { return "x", strings.NewReader("hostname x\n"), nil },
		func(string) (io.WriteCloser, error) { return &chaosSink{}, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
