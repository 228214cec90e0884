package token

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzFieldsJoin checks Fields' contract on arbitrary lines: Join
// reassembles the line exactly, every word is a non-empty run of
// non-space bytes, every gap between two words is non-empty, and the
// two slices, though carved from one allocation, do not alias: appending
// to words leaves gaps unchanged.
func FuzzFieldsJoin(f *testing.F) {
	for _, s := range []string{
		"", " ", "\t", "router bgp 701", " ip address 1.1.1.1 255.255.255.0",
		"\tneighbor 2.2.2.2 remote-as 701 ", "a  b\t\tc", "x", "  x  ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		words, gaps := Fields(line)
		if len(gaps) != len(words)+1 {
			t.Fatalf("%q: %d words, %d gaps", line, len(words), len(gaps))
		}
		if got := Join(words, gaps); got != line {
			t.Fatalf("Join(Fields(%q)) = %q", line, got)
		}
		for _, w := range words {
			if w == "" || strings.ContainsAny(w, " \t") {
				t.Fatalf("%q: bad word %q", line, w)
			}
		}
		for i := 1; i < len(words); i++ {
			if gaps[i] == "" {
				t.Fatalf("%q: empty gap between words %q", line, words)
			}
		}
		before := slices.Clone(gaps)
		_ = append(words, "appended", "words")
		if !slices.Equal(gaps, before) {
			t.Fatalf("%q: appending to words changed gaps %q to %q", line, before, gaps)
		}
	})
}

// FuzzNextWordMatchesFields checks that NextWord yields exactly Fields'
// words, in order.
func FuzzNextWordMatchesFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "\t", "router bgp 701", " ip address 1.1.1.1 255.255.255.0",
		"\tneighbor 2.2.2.2 remote-as 701 ", "a  b\t\tc", "x", "  x  ", "a\nb\r c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want, _ := Fields(line)
		var got []string
		for w, i := NextWord(line, 0); w != ""; w, i = NextWord(line, i) {
			got = append(got, w)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("NextWord over %q yields %q, Fields %q", line, got, want)
		}
	})
}

// FuzzAppendFields checks that AppendFields into a dirty, non-empty
// buffer returns exactly Fields' words and gaps, leaves the buffer's old
// prefix untouched, and keeps words from overwriting gaps on append.
func FuzzAppendFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "\t", "router bgp 701", " ip address 1.1.1.1 255.255.255.0",
		"\tneighbor 2.2.2.2 remote-as 701 ", "a  b\t\tc", "x", "  x  ",
	} {
		f.Add(s, 3, 0)
		f.Add(s, 1, 64)
	}
	f.Fuzz(func(t *testing.T, line string, prefix, spare int) {
		prefix, spare = 1+prefix&15, spare&127 // a non-empty prefix, some spare capacity
		buf := make([]string, prefix, prefix+spare)
		full := buf[:cap(buf)]
		for i := range full {
			full[i] = "dirty"
		}
		for i := range buf {
			buf[i] = fmt.Sprint("old", i)
		}
		old := slices.Clone(buf)
		words, gaps, out := AppendFields(buf, line)
		wantWords, wantGaps := Fields(line)
		if !slices.Equal(words, wantWords) || !slices.Equal(gaps, wantGaps) {
			t.Fatalf("%q: AppendFields = %q %q, Fields = %q %q", line, words, gaps, wantWords, wantGaps)
		}
		if len(out) != prefix+len(words)+len(gaps) {
			t.Fatalf("%q: returned buffer has length %d, want %d", line, len(out), prefix+len(words)+len(gaps))
		}
		if !slices.Equal(out[:prefix], old) || !slices.Equal(buf, old) {
			t.Fatalf("%q: old prefix %q became %q", line, old, out[:prefix])
		}
		if cap(words) != len(words) || cap(gaps) != len(gaps) {
			t.Fatalf("%q: words cap %d len %d, gaps cap %d len %d", line, cap(words), len(words), cap(gaps), len(gaps))
		}
		before := slices.Clone(gaps)
		_ = append(words, "appended", "words")
		if !slices.Equal(gaps, before) {
			t.Fatalf("%q: appending to words changed gaps %q to %q", line, before, gaps)
		}
	})
}

// FuzzCountFields checks that CountFields counts exactly the words
// strings.Fields returns, Unicode spaces and invalid UTF-8 included.
func FuzzCountFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "a b", "\r\n", "a\vb", "a\u0085b", "a b", "\xff \xfe",
		"banner text", "  lead trail  ", "\x85", "\xc2\x85x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CountFields(s), len(strings.Fields(s)); got != want {
			t.Fatalf("CountFields(%q) = %d, strings.Fields has %d", s, got, want)
		}
	})
}

// FuzzNextSegmentMatchesSplitWord checks that NextSegment yields
// SplitWord's segments in order, and — since SplitWord is built on
// NextSegment — that those segments are what rule S1 defines
// independently: non-empty maximal runs of one class (alphabetic,
// digit, other) that concatenate back to the word.
func FuzzNextSegmentMatchesSplitWord(f *testing.F) {
	for _, s := range []string{
		"", "Ethernet0/0", "cr1.sfo-serial3/0.8", "701", "!!", "a", "UUNET-import", "x\xff9",
	} {
		f.Add(s)
	}
	class := func(c byte) Kind {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			return Word
		case c >= '0' && c <= '9':
			return Integer
		}
		return Punct
	}
	f.Fuzz(func(t *testing.T, w string) {
		var got []Segment
		for s, i := NextSegment(w, 0); s.Text != ""; s, i = NextSegment(w, i) {
			got = append(got, s)
		}
		if !slices.Equal(got, SplitWord(w)) {
			t.Fatalf("NextSegment over %q yields %v, SplitWord %v", w, got, SplitWord(w))
		}
		var joined strings.Builder
		for k, s := range got {
			for i := 0; i < len(s.Text); i++ {
				if class(s.Text[i]) != s.Kind {
					t.Fatalf("%q: segment %q is not all %v", w, s.Text, s.Kind)
				}
			}
			if k > 0 && got[k-1].Kind == s.Kind {
				t.Fatalf("%q: segments %q and %q are one %v run", w, got[k-1].Text, s.Text, s.Kind)
			}
			joined.WriteString(s.Text)
		}
		if joined.String() != w {
			t.Fatalf("segments of %q join to %q", w, joined.String())
		}
	})
}
