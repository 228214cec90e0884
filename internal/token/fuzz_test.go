package token

import (
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
