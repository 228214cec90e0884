package confanon

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The golden corpus pins the anonymizer's exact output bytes for a fixed
// salt, so mapping drift — from refactors of the rule engine, ordering
// changes in dispatch, or accidental edits to the hash derivations — is
// caught immediately. The expected files were generated by the
// pre-rule-engine anonymizer; any diff means the (salt, input) → output
// contract changed and every previously published anonymized corpus would
// no longer be reproducible.

const goldenSalt = "golden-v1"

func readGoldenDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	if len(files) == 0 {
		t.Fatalf("no files in %s", dir)
	}
	return files
}

func diffGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s: first divergence at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
			return
		}
	}
	t.Errorf("%s output differs (same lines, different bytes)", name)
}

// TestGoldenCorpus anonymizes the checked-in IOS+JunOS corpus under the
// default (shaped-tree) scheme via CorpusContext and compares byte-for-byte.
func TestGoldenCorpus(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	want := readGoldenDir(t, "testdata/golden/want")
	a := New(Options{Salt: []byte(goldenSalt)})
	got := mustCorpus(t, a, in)
	for name := range want {
		diffGolden(t, name, got[name], want[name])
	}
}

// TestGoldenMinimal pins Style: Minimal: the corpus through CorpusContext
// under the default scheme, with every rewritten regexp in its
// minimal-DFA form. Its community and as-path lists differ from want/.
func TestGoldenMinimal(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	want := readGoldenDir(t, "testdata/golden/want-minimal")
	a := New(Options{Salt: []byte(goldenSalt), Style: Minimal})
	got := mustCorpus(t, a, in)
	for name := range want {
		diffGolden(t, name, got[name], want[name])
	}
}

// TestGoldenStateless pins the stateless (Crypto-PAn) scheme with files
// anonymized one at a time in name order — the exact contract the
// streaming layer and the stateless ParallelCorpusContext promise to match.
func TestGoldenStateless(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	want := readGoldenDir(t, "testdata/golden/want-stateless")
	a := New(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		diffGolden(t, n, a.File(in[n]), want[n])
	}
}
