package anonymizer

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"confanon/internal/ipanon"
	"confanon/internal/store"
	"confanon/internal/trace"
)

// templateInputs are files whose addresses sit in every slot a hole can
// take: pair and classful rules, bare and neighbor addresses, slash
// prefixes, JunOS values wrapped in punctuation, and dotted quads in
// text the engine drops or hashes.
func templateInputs(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{
		"ios": "hostname r1\n" +
			"banner motd ^C\nNOC 12.1.1.1 owns 12.0.0.0/8\n^C\n" +
			"interface Ethernet0\n description to 12.1.2.2/30 core\n ip address 12.1.2.1 255.255.255.252\n" +
			"router bgp 701\n neighbor 12.1.2.2 remote-as 1239\n neighbor 12.1.2.2 route-map in-map in\n" +
			" network 12.4.0.0 mask 255.255.0.0\n" +
			"router rip\n network 10.0.0.0\n" +
			"access-list 101 permit ip 12.5.0.0 0.0.255.255 host 12.5.1.1\n" +
			"ip prefix-list pl seq 5 permit 12.4.0.0/16 le 24\n" +
			"! 12.9.9.9 in a comment\n",
		"junos": "interfaces {\n ge-0/0/0 {\n  unit 0 {\n   family inet {\n    address 12.0.0.1/30;\n   }\n  }\n }\n}\n" +
			"protocols {\n bgp {\n  group peers {\n   neighbor 12.0.0.2;\n   peer-as 701;\n  }\n }\n}\n",
	}
	data, err := os.ReadFile("../../testdata/golden/in/cr1-lax-confg")
	if err != nil {
		t.Fatal(err)
	}
	files["golden"] = string(data)
	return files
}

// censusFill runs the parallel driver's path for one file on s: census,
// replay, fill.
func censusFill(s *Session, name, text string) (string, *FileError) {
	tm := s.Census(name, text)
	s.Replay(tm.Pins())
	s.Replay(tm.Calls())
	wk := s.Acquire()
	defer s.Release(wk)
	return wk.SafeFill(tm)
}

// directRewrite is the reference the fill is checked against, which
// never goes through a fill: the file's pins are replayed into the
// Session's tree, and then every line runs through the line loop with
// the worker mapping straight into the tree, as one "rewrite" unit.
func directRewrite(s *Session, name, text string) (string, *FileError) {
	pins := s.Census(name, text).Pins()
	wk := s.Acquire()
	defer s.Release(wk)
	var out string
	ferr := wk.unit(name, "rewrite", func() error {
		pins.Replay(wk.ip)
		var b []byte
		wk.runText(&b, text)
		out = fileText(b)
		return nil
	})
	return out, ferr
}

// TestFillMatchesRewrite: a census filled from the replayed tree —
// through SafeFill, as a corpus run fills it, and through the worker's
// own census → replay → fill, as SafeAnonymizeText runs it — gives the
// bytes, Stats, recorder, mapping and decisions of the line loop
// mapping straight into the tree once the pins are in.
func TestFillMatchesRewrite(t *testing.T) {
	fills := map[string]func(s *Session, name, text string) (string, *FileError){
		"SafeFill": censusFill,
		"SafeAnonymizeText": func(s *Session, name, text string) (string, *FileError) {
			wk := s.Acquire()
			defer s.Release(wk)
			return wk.SafeAnonymizeText(name, text)
		},
	}
	for name, text := range templateInputs(t) {
		for how, fill := range fills {
			refTr, fillTr := trace.NewTracer(), trace.NewTracer()
			ref := Compile(Options{Salt: []byte("tmpl"), Tracer: refTr}).NewSession()
			got := Compile(Options{Salt: []byte("tmpl"), Tracer: fillTr}).NewSession()

			want, ferr := directRewrite(ref, name, text)
			if ferr != nil {
				t.Fatal(ferr)
			}
			out, ferr := fill(got, name, text)
			if ferr != nil {
				t.Fatal(ferr)
			}
			if out != want {
				t.Errorf("%s %s: fill differs from the line loop:\n got %q\nwant %q", how, name, out, want)
			}
			rs, gs := ref.Stats(), got.Stats()
			if rs.Lines != gs.Lines || rs.Files != gs.Files || rs.IPsMapped != gs.IPsMapped ||
				rs.TokensHashed != gs.TokensHashed || !reflect.DeepEqual(rs.RuleHits(), gs.RuleHits()) {
				t.Errorf("%s %s: fill Stats differ from the line loop's", how, name)
			}
			if !reflect.DeepEqual(ref.CaptureState(), got.CaptureState()) {
				t.Errorf("%s %s: fill recorder or mapping differs from the line loop's", how, name)
			}
			if rd, gd := decisions(refTr), decisions(fillTr); !reflect.DeepEqual(rd, gd) {
				t.Errorf("%s %s: fill decisions differ from the line loop's:\n got %v\nwant %v", how, name, gd, rd)
			}
		}
	}
}

// decisions lists a tracer's decisions without their span IDs.
func decisions(tr *trace.Tracer) []trace.Decision {
	var out []trace.Decision
	for _, d := range tr.Ledger() {
		d.Span = 0
		out = append(out, d)
	}
	return out
}

// countingLedger is a LedgerSink that counts what reaches it.
type countingLedger struct{ appends, commits int }

func (l *countingLedger) Append(recs ...store.Record) error { l.appends += len(recs); return nil }
func (l *countingLedger) Commit() error                     { l.commits++; return nil }

// TestFillUnplacedFailsClosed: a template whose holes could not be
// placed fails its fill with a FileError at the first such line, and
// publishes no output, commits no Stats and makes no ledger commit.
func TestFillUnplacedFailsClosed(t *testing.T) {
	text := templateInputs(t)["ios"]
	s := Compile(Options{Salt: []byte("tmpl")}).NewSession()
	led := &countingLedger{}
	s.SetLedger(led)

	tm := s.Census("ios", text)
	s.Replay(tm.Pins())
	s.Replay(tm.Calls())
	tm.unplaced = 3
	wk := s.Acquire()
	defer s.Release(wk)
	out, ferr := wk.SafeFill(tm)
	if ferr == nil || !errors.Is(ferr, errUnplaced) || ferr.Line != 3 || ferr.Name != "ios" {
		t.Fatalf("unplaced fill error = %v, want errUnplaced at ios line 3", ferr)
	}
	if out != "" {
		t.Errorf("unplaced fill published %q", out)
	}
	if st := s.Stats(); st.Files != 0 || st.Lines != 0 {
		t.Errorf("unplaced fill committed Stats: %d files, %d lines", st.Files, st.Lines)
	}
	if led.commits != 0 || led.appends != 0 {
		t.Errorf("unplaced fill reached the ledger: %d records, %d commits", led.appends, led.commits)
	}
	tm.unplaced = 0 // the same template, placed, commits
	if _, ferr := wk.SafeFill(tm); ferr != nil || led.commits != 1 {
		t.Errorf("placed fill: error %v, %d ledger commits, want 1", ferr, led.commits)
	}
}

// TestPlaceNeedsTheJoin: holes are placed only in a line that is the
// join of the words they were rendered into.
func TestPlaceNeedsTheJoin(t *testing.T) {
	words, gaps := []string{"neighbor", "12.1.1.1"}, []string{" ", " ", ""}
	tm := &Template{line: []lineHole{{slot: &words[1], n: 8, text: "12.1.1.1"}}}
	if !tm.place(" neighbor 12.1.1.1", words, gaps) || len(tm.holes) != 1 || tm.holes[0].pos != 10 {
		t.Fatalf("join not placed: %+v", tm.holes)
	}
	for _, res := range []string{" neighbor 12.1.1.1 extra", "neighbor 12.1.1.1", " neighbor  12.1.1.1"} {
		tm.holes = nil
		if tm.place(res, words, gaps) {
			t.Errorf("placed holes in %q, which is not the join", res)
		}
	}
	other := "12.1.1.1"
	tm.line[0].slot = &other
	if tm.place(" neighbor 12.1.1.1", words, gaps) {
		t.Error("placed a hole whose slot is not among the words")
	}
}

// TestCensusFailureFailsFill: a file whose census panics fails its fill
// with the rewrite's FileError, keeps its truncated call log, and
// publishes what it recorded before the panic, as the rewrite does.
func TestCensusFailureFailsFill(t *testing.T) {
	text := "hostname r1\ninterface Ethernet0\n ip address 12.1.2.1 255.255.255.0\nrouter bgp 701\n"
	SetFaultHook(func(name string, line int) {
		if line == 4 {
			panic("boom")
		}
	})
	defer SetFaultHook(nil)

	ref := Compile(Options{Salt: []byte("tmpl")}).NewSession()
	wk := ref.Acquire()
	_, want := wk.SafeAnonymizeText("f", text)
	ref.Release(wk)

	s := Compile(Options{Salt: []byte("tmpl")}).NewSession()
	tm := s.Census("f", text)
	if tm.err == nil || tm.err.Line != 4 || tm.Pins().Len() != 1 || tm.Calls().Len() != 2 {
		t.Fatalf("census error %v, %d pins of %d calls: want line 4, the interface's prefix and host",
			tm.err, tm.Pins().Len(), tm.Calls().Len())
	}
	_, got := censusFill(s, "f", text)
	if got == nil || want == nil || got.Error() != want.Error() || got.Line != 4 {
		t.Fatalf("fill error %v, want the rewrite's %v at line 4", got, want)
	}
	if s.Stats().Files != 0 {
		t.Error("a failed fill committed its Stats")
	}
	if rs, gs := ref.CaptureState(), s.CaptureState(); !reflect.DeepEqual(rs.Words, gs.Words) {
		t.Errorf("recorder words %v, want the rewrite's %v", gs.Words, rs.Words)
	}
}

// TestCensusFileOnePass: CensusFile's full log is the one engine pass's
// call log, and its pins are that log's prefix calls, shortest first,
// not a prefix of it.
func TestCensusFileOnePass(t *testing.T) {
	s := Compile(Options{Salt: []byte("tmpl")}).NewSession()
	text := templateInputs(t)["ios"]
	pins, full, ferr := s.CensusFile("ios", text)
	if ferr != nil || full == nil || pins.Len() == 0 || pins.Len() >= full.Len() {
		t.Fatalf("pins %d of %d calls, error %v", pins.Len(), full.Len(), ferr)
	}
	rec, log := &recordingSink{}, &recordingSink{}
	pins.Replay(rec)
	full.Replay(log)
	var prefixes []ipanon.Pair
	for _, r := range log.recs {
		if r.Out != 0 {
			prefixes = append(prefixes, r)
		}
	}
	if !sameMultiset(rec.recs, prefixes) {
		t.Errorf("pins %v are not the log's prefix calls %v", rec.recs, prefixes)
	}
	for i := 1; i < len(rec.recs); i++ {
		if rec.recs[i].Out < rec.recs[i-1].Out {
			t.Errorf("pin %d is /%d after a /%d", i, rec.recs[i].Out-1, rec.recs[i-1].Out-1)
		}
	}
}

// recordingSink is a Mapper that records the calls replayed into it: a
// prefix call's Out is its length plus one, a host call's is zero.
type recordingSink struct{ recs []ipanon.Pair }

func (r *recordingSink) MapV4(ip uint32) uint32 {
	r.recs = append(r.recs, ipanon.Pair{In: ip})
	return ip
}

func (r *recordingSink) MapPrefix(addr uint32, length int) uint32 {
	r.recs = append(r.recs, ipanon.Pair{In: addr, Out: uint32(length) + 1})
	return addr
}

func (r *recordingSink) Len() int                { return len(r.recs) }
func (r *recordingSink) Remaps() int64           { return 0 }
func (r *recordingSink) Mapping() []ipanon.Pair  { return nil }
func (r *recordingSink) Since(int) []ipanon.Pair { return nil }
