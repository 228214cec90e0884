package confanon

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"confanon/internal/netgen"
)

// serialCorpus is the serial reference the census pipeline is checked
// against: the §4.3 shaped tree pinned one file at a time, through the
// single-file entry points. One worker of a's Session pins every file
// in sorted-name order (SafePrescan), then rewrites every file in that
// order, and under Options.Strict each output is then leak-gated
// against the values recorded from the whole corpus. A file whose
// census fails fails both units at the same line, and its rewrite
// replays what its census mapped, as the corpus driver does. Its mapper
// calls are the sequence the census replay must reproduce, so
// ParallelCorpusContext must match its outputs, statuses and quarantine
// set at every worker count.
func serialCorpus(a *Anonymizer, files map[string]string) *CorpusResult {
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	res := &CorpusResult{Files: make(map[string]FileResult, len(files))}
	names := sortedNames(files)
	for _, n := range names {
		wk.SafePrescan(n, files[n]) // a failure fails the rewrite too
	}
	for _, n := range names {
		out, ferr := wk.SafeAnonymizeText(n, files[n])
		if ferr != nil {
			res.Files[n] = FileResult{Name: n, Status: FileFailed, Err: ferr}
			continue
		}
		res.Files[n] = FileResult{Name: n, Status: FileOK, Text: out}
	}
	if a.strict {
		for _, n := range names {
			fr := res.Files[n]
			if fr.Status != FileOK {
				continue
			}
			if leaks := confirmedLeaks(wk.LeakReport(fr.Text)); len(leaks) > 0 {
				res.Files[n] = FileResult{Name: n, Status: FileQuarantined, Leaks: leaks}
			}
		}
	}
	res.Stats = a.Stats()
	return res
}

func TestParallelCorpusMatchesSequential(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1200, Kind: netgen.Backbone, Routers: 20})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt), StatelessIP: true}

	seq := New(opts)
	want := make(map[string]string, len(files))
	for name, text := range files {
		want[name] = seq.File(text)
	}
	got, stats := mustParallel(t, opts, files, 4)
	if len(got) != len(want) {
		t.Fatalf("file count %d != %d", len(got), len(want))
	}
	for name := range want {
		if got[name] != want[name] {
			t.Fatalf("parallel output differs for %s", name)
		}
	}
	if stats.Files != int64(len(files)) || stats.Lines == 0 {
		t.Errorf("merged stats wrong: %+v", stats)
	}
}

func TestParallelCorpusCrossWorkerConsistency(t *testing.T) {
	// The same address appearing in many files must map identically even
	// when different workers process the files.
	files := make(map[string]string)
	for i := 0; i < 16; i++ {
		files[string(rune('a'+i))] = "interface Ethernet0\n ip address 12.9.9.9 255.255.255.0\n"
	}
	out, _ := mustParallel(t, Options{Salt: []byte("p")}, files, 8)
	var first string
	for _, text := range out {
		if first == "" {
			first = text
			continue
		}
		if text != first {
			t.Fatal("same input anonymized differently across workers")
		}
	}
}

func TestParallelCorpusValidates(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1201, Kind: netgen.Enterprise, Routers: 16})
	files := n.RenderAll()
	// Default options: the shaped tree, running through the parallel
	// census/replay pipeline.
	post, _ := mustParallel(t, Options{Salt: []byte(n.Salt)}, files, runtime.NumCPU())
	rep := Validate(files, post)
	if len(rep.Suite1) != 0 {
		t.Errorf("suite 1 failed under parallel shaped run: %v", rep.Suite1)
	}
	if !rep.Suite2.OK() {
		t.Errorf("suite 2 failed under parallel shaped run:\npre:  %s\npost: %s",
			rep.Suite2.PreSummary, rep.Suite2.PostSummary)
	}
}

// TestParallelShapedByteIdentical is the determinism contract of the
// census/replay pipeline: under the shaped tree — whose mapping depends
// on the order addresses first reach it — a ParallelCorpusContext run
// must be byte-identical to the serial reference (serialCorpus) at every
// worker count, across repeated runs (goroutine scheduling must not
// matter).
func TestParallelShapedByteIdentical(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1203, Kind: netgen.Backbone, Routers: 24})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt)} // shaped tree

	serial := serialCorpus(New(opts), files)
	if !serial.Ok() {
		t.Fatalf("serial run not clean: %v", serial.Failed())
	}
	want := serial.Outputs()

	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			res, err := ParallelCorpusContext(context.Background(), opts, files, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("workers=%d rep=%d: not clean: %v", workers, rep, res.Failed())
			}
			got := res.Outputs()
			if len(got) != len(want) {
				t.Fatalf("workers=%d rep=%d: file count %d != %d", workers, rep, len(got), len(want))
			}
			for name := range want {
				if got[name] != want[name] {
					t.Fatalf("workers=%d rep=%d: output differs from serial for %s", workers, rep, name)
				}
			}
		}
	}
}

// TestParallelShapedSessionReuse: a warm Session (mapping already
// populated by an earlier corpus) must stay consistent when a second
// corpus runs through the parallel pipeline — the replayed traces land
// as cache hits on the existing entries.
func TestParallelShapedSessionReuse(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 1204, Kind: netgen.Enterprise, Routers: 8})
	files := n.RenderAll()
	opts := Options{Salt: []byte(n.Salt)}

	serial := New(opts)
	serialCorpus(serial, files)
	wantSecond := serialCorpus(serial, files)

	par := New(opts)
	if _, err := par.ParallelCorpusContext(context.Background(), files, 4); err != nil {
		t.Fatal(err)
	}
	gotSecond, err := par.ParallelCorpusContext(context.Background(), files, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name := range wantSecond.Outputs() {
		if gotSecond.Outputs()[name] != wantSecond.Outputs()[name] {
			t.Fatalf("warm-session parallel output differs from serial for %s", name)
		}
	}
}

// TestParallelWideNarrowMatchesSerial: workers reuse their per-line
// buffers from file to file, so a corpus whose files alternate very
// wide lines (dozens of compound words) and narrow ones must still
// come out of the two-worker census → replay → fill pipeline, and of
// the stateless pool, byte-identical to the serial reference.
func TestParallelWideNarrowMatchesSerial(t *testing.T) {
	files := map[string]string{}
	for f := 0; f < 12; f++ {
		var b strings.Builder
		if f%2 == 0 {
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&b, "interface Serial%d/%d\n ip address 12.%d.%d.1 255.255.255.0\n tag", f, i, f, i)
				for j := 0; j < 30; j++ {
					fmt.Fprintf(&b, " srv%d.pop%d-edge%d.acme%d-corp.example 10.%d.%d.%d/%d", j, i, f, j%5, f, i, j, 16+j%9)
				}
				b.WriteString("\n")
			}
		} else {
			fmt.Fprintf(&b, "x.y\n!\nhostname r%d\ninterface Loopback0\n ip address 12.%d.0.1 255.255.255.255\nq-r\nend\n", f, f)
		}
		files[fmt.Sprintf("r%02d-confg", f)] = b.String()
	}
	for _, opts := range []Options{{Salt: []byte("wide")}, {Salt: []byte("wide"), StatelessIP: true}} {
		serial := serialCorpus(New(opts), files)
		got, _ := mustParallel(t, opts, files, 2)
		for name, want := range serial.Outputs() {
			if got[name] != want {
				t.Fatalf("stateless=%v: %s differs from the serial run", opts.StatelessIP, name)
			}
		}
	}
}

// BenchmarkParallelCorpus sweeps workers under the stateless scheme
// (mappings are pure functions of the salt; no census needed), the
// parallelization §4.3 attributes to the Xu scheme.
func BenchmarkParallelCorpus(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 1202, Kind: netgen.Backbone, Routers: 48})
	files := n.RenderAll()
	lines := n.TotalLines()
	opts := Options{Salt: []byte(n.Salt), StatelessIP: true}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustParallel(b, opts, files, workers)
			}
			b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkParallelShapedTree sweeps workers under the default shaped
// tree: the census → replay → fill pipeline, whose output is
// byte-identical to a serial run. Compare against BenchmarkParallelCorpus
// to see what determinism costs (the serial replay, and the fill's pass
// over each file's output).
func BenchmarkParallelShapedTree(b *testing.B) {
	n := netgen.Generate(netgen.Params{Seed: 1202, Kind: netgen.Backbone, Routers: 48})
	files := n.RenderAll()
	lines := n.TotalLines()
	opts := Options{Salt: []byte(n.Salt)}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustParallel(b, opts, files, workers)
			}
			b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// TestParallelStrictGateSameAtAnyWorkerCount: -strict gates every file
// against the values recorded from the whole corpus, so the quarantine
// set cannot depend on the worker count, and it is the serial
// reference's. The corpus is an ASN collision: b-confg peers with the
// AS that 701 (a-confg's peer) anonymizes to, so a-confg's output carries
// a value recorded from b-confg and must be quarantined — including when
// a-confg is rewritten before b-confg has been seen.
func TestParallelStrictGateSameAtAnyWorkerCount(t *testing.T) {
	opts := Options{Salt: []byte("gate"), Strict: true}
	probe, err := New(Options{Salt: opts.Salt}).CorpusContext(context.Background(),
		map[string]string{"p": "router bgp 65001\n neighbor 12.1.1.1 remote-as 701\n"})
	if err != nil {
		t.Fatal(err)
	}
	image := strings.Fields(strings.Split(probe.Files["p"].Text, "\n")[1])[3]
	if image == "701" {
		t.Fatalf("fixture: 701 maps to itself under this salt")
	}
	files := map[string]string{
		"a-confg": "router bgp 65001\n neighbor 12.1.1.1 remote-as 701\n",
		"b-confg": "router bgp 65002\n neighbor 12.2.2.2 remote-as " + image + "\n",
	}

	serial := serialCorpus(New(opts), files)
	want := serial.Quarantined()
	if len(want) != 1 || want[0] != "a-confg" {
		t.Fatalf("serial reference quarantined %v, want [a-confg]", want)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := ParallelCorpusContext(context.Background(), opts, files, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Quarantined(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: quarantined %v, want %v", workers, got, want)
		}
		if got, wantText := res.Files["b-confg"].Text, serial.Files["b-confg"].Text; got != wantText {
			t.Errorf("workers=%d: published b-confg differs from the serial reference", workers)
		}
	}
}

// TestMinimalStyleDeterministic: under Style: Minimal a rewritten
// regexp is rebuilt from the minimal DFA of its permuted language, so
// its text must be a function of that language alone. The same file
// through two fresh Programs, at one and at four workers, comes out
// byte-identical.
func TestMinimalStyleDeterministic(t *testing.T) {
	files := map[string]string{"r1-confg": "hostname r1\n" +
		"router bgp 701\n neighbor 12.1.1.2 remote-as 1239\n" +
		"ip as-path access-list 10 permit _1[0-9][0-9][0-9]_\n" +
		"ip as-path access-list 20 permit ^(70[1-9]|3[0-9][0-9]|65[0-5][0-9][0-9])$\n" +
		"ip community-list 100 permit 701:[1-4][0-9][0-9]\n"}
	alt, _ := mustParallel(t, Options{Salt: []byte("minimal")}, files, 1)
	var want string
	for _, workers := range []int{1, 4} {
		for run := 0; run < 2; run++ {
			got, _ := mustParallel(t, Options{Salt: []byte("minimal"), Style: Minimal}, files, workers)
			if want == "" {
				want = got["r1-confg"]
				if want == alt["r1-confg"] {
					t.Fatalf("Style: Minimal gave the alternation form:\n%s", want)
				}
				continue
			}
			if got["r1-confg"] != want {
				t.Fatalf("workers=%d run %d: output differs:\n got %s\nwant %s", workers, run, got["r1-confg"], want)
			}
		}
	}
}
