package confanon

import (
	"bytes"
	"context"
	"io"
	"sort"
	"strings"
	"testing"
)

// TestStreamMatchesGoldenStateless: the streaming path produces the same
// bytes as the pinned stateless golden corpus — the single-pass rewrite
// is indistinguishable from the buffered one.
func TestStreamMatchesGoldenStateless(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	want := readGoldenDir(t, "testdata/golden/want-stateless")
	a := New(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var buf bytes.Buffer
		if err := a.Stream(strings.NewReader(in[n]), &buf); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		diffGolden(t, n, buf.String(), want[n])
	}
}

// TestStreamMatchesFileTree: under the default shaped tree Stream buffers
// one file and must still equal File on the same text.
func TestStreamMatchesFileTree(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	for name, text := range in {
		x := New(Options{Salt: []byte(goldenSalt)})
		var buf bytes.Buffer
		if err := x.Stream(strings.NewReader(text), &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := New(Options{Salt: []byte(goldenSalt)})
		diffGolden(t, name, buf.String(), y.File(text))
	}
}

// TestStreamUnterminatedFinalLine: input without a trailing newline
// streams to the same bytes as File, which terminates the output.
func TestStreamUnterminatedFinalLine(t *testing.T) {
	const text = "hostname r1.foo.com\nrouter bgp 1111"
	a := New(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	var buf bytes.Buffer
	if err := a.Stream(strings.NewReader(text), &buf); err != nil {
		t.Fatal(err)
	}
	b := New(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	if got, want := buf.String(), b.File(text); got != want {
		t.Errorf("stream %q != file %q", got, want)
	}
}

type closeBuffer struct {
	bytes.Buffer
	closed bool
}

func (c *closeBuffer) Close() error { c.closed = true; return nil }

// TestStreamCorpus: the iterator visits every file, matches the pinned
// stateless outputs, and closes each sink.
func TestStreamCorpus(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	want := readGoldenDir(t, "testdata/golden/want-stateless")
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)

	outs := make(map[string]*closeBuffer)
	i := 0
	a := New(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	ferrs, err := a.StreamCorpusContext(context.Background(),
		func() (string, io.Reader, error) {
			if i >= len(names) {
				return "", nil, io.EOF
			}
			n := names[i]
			i++
			return n, strings.NewReader(in[n]), nil
		},
		func(name string) (io.WriteCloser, error) {
			outs[name] = &closeBuffer{}
			return outs[name], nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ferrs) != 0 {
		t.Fatalf("per-file failures: %v", ferrs)
	}
	if len(outs) != len(in) {
		t.Fatalf("visited %d files, want %d", len(outs), len(in))
	}
	for name, buf := range outs {
		if !buf.closed {
			t.Errorf("%s: sink not closed", name)
		}
		diffGolden(t, name, buf.Buffer.String(), want[name])
	}
	if a.Stats().Files != int64(len(in)) {
		t.Errorf("Files = %d, want %d", a.Stats().Files, len(in))
	}
}

// TestParallelCorpusStatsMerged: the merged Stats carry the per-rule
// counters — the field-by-field merge this replaced dropped them when new
// counters were added.
func TestParallelCorpusStatsMerged(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	out, stats := mustParallel(t, Options{Salt: []byte(goldenSalt)}, in, 4)
	if len(out) != len(in) {
		t.Fatalf("got %d outputs, want %d", len(out), len(in))
	}
	if stats.Files != int64(len(in)) || stats.Lines == 0 {
		t.Errorf("aggregate counters not merged: %+v", stats)
	}
	if len(stats.RuleHits()) == 0 {
		t.Error("RuleHits not merged")
	}
	total := 0
	for _, d := range stats.RuleTime() {
		total += int(d)
	}
	if total <= 0 {
		t.Error("RuleTime not merged")
	}
}
