package confanon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	. "confanon"
)

// This file pins the tracing contract end to end: a traced run is
// byte-identical to an untraced one at every worker count, the span
// graph is a well-formed tree (corpus → file → stage → rule), every
// ledger entry resolves to its owning file span, and — the property the
// whole design exists for — the exported trace file contains no
// cleartext sensitive tokens, verified by the engine's own leak
// detector.

// TestTracedRunOutputByteIdentical: wiring a Tracer must not perturb
// the output in any mode or at any worker count.
func TestTracedRunOutputByteIdentical(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	ref, err := ParallelCorpusContext(context.Background(), Options{Salt: []byte(goldenSalt)}, in, 1)
	if err != nil || !ref.Ok() {
		t.Fatalf("untraced reference run: err %v, failed %v", err, ref.Failed())
	}
	want := ref.Outputs()

	for _, workers := range []int{1, 4, 8} {
		tr := NewTracer()
		res, err := ParallelCorpusContext(context.Background(),
			Options{Salt: []byte(goldenSalt), Tracer: tr}, in, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.Outputs()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(want))
		}
		for n, w := range want {
			if got[n] != w {
				t.Errorf("workers=%d: traced output of %s differs from untraced run", workers, n)
			}
		}
		if len(tr.Spans()) == 0 || len(tr.Ledger()) == 0 {
			t.Errorf("workers=%d: traced run recorded %d spans, %d decisions; want both > 0",
				workers, len(tr.Spans()), len(tr.Ledger()))
		}
	}

	// The serial fail-closed path traces through the same bridge.
	tr := NewTracer()
	a := New(Options{Salt: []byte(goldenSalt), Tracer: tr})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for n, w := range want {
		if res.Outputs()[n] != w {
			t.Errorf("serial traced output of %s differs from untraced run", n)
		}
	}
	if len(tr.Spans()) == 0 || len(tr.Ledger()) == 0 {
		t.Error("serial traced run recorded no spans or no decisions")
	}
}

// TestTraceSpanGraph: the published spans form a single tree rooted at
// the corpus span, with kinds nesting corpus → file → stage → rule, and
// every ledger entry pointing into a file span of its own file.
func TestTraceSpanGraph(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	tr := NewTracer()
	if _, err := ParallelCorpusContext(context.Background(),
		Options{Salt: []byte(goldenSalt), Tracer: tr}, in, 4); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byID := make(map[uint64]*Span, len(spans))
	var corpus *Span
	for _, s := range spans {
		if s.Status == "" {
			t.Errorf("span %d (%s %q) was never ended", s.ID, s.Kind, s.Name)
		}
		if byID[uint64(s.ID)] != nil {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		byID[uint64(s.ID)] = s
		if s.Kind == "corpus" {
			if corpus != nil {
				t.Fatal("more than one corpus span")
			}
			corpus = s
		}
	}
	if corpus == nil {
		t.Fatal("no corpus span")
	}
	if corpus.Parent != 0 || corpus.Name != "parallel-corpus" {
		t.Errorf("corpus span = parent %d name %q, want root parallel-corpus", corpus.Parent, corpus.Name)
	}
	if corpus.Attr("workers") != "4" {
		t.Errorf("corpus workers attr = %q, want 4", corpus.Attr("workers"))
	}

	// Kind nesting and tree-ness: every non-root parent exists and is of
	// the enclosing kind; walking parents always terminates at the root.
	fileSpans := map[string]bool{}
	for _, s := range spans {
		switch s.Kind {
		case "corpus":
		case "file":
			if s.Parent != corpus.ID {
				t.Errorf("file span %q parents to %d, want corpus span %d", s.Name, s.Parent, corpus.ID)
			}
			fileSpans[s.Name] = true
		case "stage":
			p := byID[uint64(s.Parent)]
			if p == nil || (p.Kind != "file" && p.Kind != "corpus") {
				t.Errorf("stage span %q has parent %v, want a file or corpus span", s.Name, p)
			}
		case "rule":
			p := byID[uint64(s.Parent)]
			if p == nil || p.Kind != "stage" || p.Name != "rewrite" {
				t.Errorf("rule span %q has parent %v, want the rewrite stage span", s.Name, p)
			}
			if s.Attr("hits") == "" {
				t.Errorf("rule span %q carries no hits attribute", s.Name)
			}
		default:
			t.Errorf("unknown span kind %q", s.Kind)
		}
		hops := 0
		for cur := s; cur.Parent != 0; cur = byID[uint64(cur.Parent)] {
			if byID[uint64(cur.Parent)] == nil {
				t.Fatalf("span %d has dangling parent %d", s.ID, cur.Parent)
			}
			if hops++; hops > len(spans) {
				t.Fatalf("parent cycle reachable from span %d", s.ID)
			}
		}
	}
	for n := range in {
		if !fileSpans[n] {
			t.Errorf("input file %s has no file span", n)
		}
	}

	// Ledger entries resolve to a file span of the same file, on a real
	// line, with a known class and a non-empty rule attribution.
	classes := map[string]bool{"ip": true, "asn": true, "community": true,
		"hashed": true, "passed": true, "dropped": true}
	for _, d := range tr.Ledger() {
		sp := byID[uint64(d.Span)]
		if sp == nil || sp.Kind != "file" || sp.Name != d.File {
			t.Fatalf("decision %+v does not resolve to a file span of %s", d, d.File)
		}
		if d.Line < 1 {
			t.Errorf("decision with line %d, want >= 1: %+v", d.Line, d)
		}
		if !classes[d.Class] {
			t.Errorf("decision with unknown class %q: %+v", d.Class, d)
		}
		if d.Rule == "" {
			t.Errorf("decision with empty rule attribution: %+v", d)
		}
	}
}

// TestTraceFileContainsNoCleartext is the safety acceptance check: the
// exported JSONL trace — and the ledger reconstructed from it — must
// scan clean under the same leak detector that gates the anonymized
// output, because a trace file is meant to be shareable alongside it.
func TestTraceFileContainsNoCleartext(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	tr := NewTracer()
	a := New(Options{Salt: []byte(goldenSalt), Tracer: tr, Strict: true})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("golden corpus did not anonymize cleanly: %+v", res.Report)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading exported trace: %v", err)
	}
	if tf.Schema != TraceSchema {
		t.Errorf("schema %q, want %q", tf.Schema, TraceSchema)
	}
	if len(tf.Spans) != len(tr.Spans()) || len(tf.Ledger) != len(tr.Ledger()) {
		t.Errorf("round trip lost records: %d/%d spans, %d/%d decisions",
			len(tf.Spans), len(tr.Spans()), len(tf.Ledger), len(tr.Ledger()))
	}

	// The ledger's Out values re-spaced into plain text (the compact JSON
	// encoding would hide tokens from the scanner's field splitter), and
	// the raw trace text itself.
	var led strings.Builder
	for _, d := range tf.Ledger {
		led.WriteString(d.Out)
		led.WriteByte('\n')
	}
	for what, text := range map[string]string{
		"reconstructed ledger": led.String(),
		"raw trace JSONL":      buf.String(),
	} {
		for _, l := range a.Leaks(map[string]string{"trace": text}) {
			if !l.LikelyFalsePositive {
				t.Errorf("%s leaks cleartext: %s", what, l)
			}
		}
	}
}

// TestRunReportRoundTrip: the RunReport JSON schema survives a
// marshal/unmarshal cycle with every field intact — hand-populated (so
// the failed/quarantined counts are exercised) and from a live run.
func TestRunReportRoundTrip(t *testing.T) {
	rep := &RunReport{
		Schema:           RunReportSchema,
		FilesOK:          3,
		FilesFailed:      1,
		FilesQuarantined: 2,
		Files:            6,
		Lines:            410,
		TokensHashed:     99,
		IPsMapped:        41,
		ASNsMapped:       7,
		Counters: map[string]float64{
			`confanon_rule_hits_total{rule="I1"}`: 12,
			"confanon_lines_total":                410,
		},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got RunReport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, rep) {
		t.Errorf("hand-built report did not round-trip:\n got %+v\nwant %+v", got, *rep)
	}

	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	a := New(Options{Salt: []byte(goldenSalt), Metrics: reg})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Schema != RunReportSchema {
		t.Errorf("live report schema %q, want %q", res.Report.Schema, RunReportSchema)
	}
	b, err = json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	var live RunReport
	if err := json.Unmarshal(b, &live); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&live, res.Report) {
		t.Error("live report did not round-trip")
	}
}
