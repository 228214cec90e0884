package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// referenceReplay is Open's replay written the plain way, as the
// reference Open must equal: every segment in name order, each line
// decoded by encoding/json (decodeLineJSON), only the lines up to the
// last one that decodes as a commit, and every data record applied at
// once through a map-based first sight per type. A line of the committed
// region that does not decode is reported as "<segment> line <n>",
// counting non-empty lines from 1.
func referenceReplay(t *testing.T, dir, saltFP string) (State, error) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var (
		st                     State
		ips, origIPs           = map[uint32]bool{}, map[uint32]bool{}
		asns, words, sensitive = map[string]bool{}, map[string]bool{}, map[string]bool{}
		relations              = map[Relation]bool{}
	)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(string(data), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
		committed := 0
		for i := len(lines) - 1; i >= 0; i-- {
			if r, err := decodeLineJSON([]byte(lines[i])); err == nil && r.T == TCommit {
				committed = i + 1
				break
			}
		}
		if committed == 0 {
			if len(lines) > 0 {
				if r, err := decodeLineJSON([]byte(lines[0])); err == nil && r.T == TOpen &&
					(r.Schema != Schema || r.SaltFP != saltFP) {
					return State{}, fmt.Errorf("bad header in %s", name)
				}
			}
			continue
		}
		for n, l := range lines[:committed] {
			r, err := decodeLineJSON([]byte(l))
			if err != nil {
				return State{}, fmt.Errorf("%w (%s line %d: %v)", ErrCorrupt, name, n+1, err)
			}
			switch r.T {
			case TOpen:
				if r.Schema != Schema || r.SaltFP != saltFP {
					return State{}, fmt.Errorf("bad header in %s", name)
				}
			case TIP:
				if !ips[r.In] {
					ips[r.In] = true
					st.IPs = append(st.IPs, Pair{In: r.In, Out: r.Out})
				}
			case TOrigIP:
				if !origIPs[r.In] {
					origIPs[r.In] = true
					st.OrigIPs = append(st.OrigIPs, r.In)
				}
			case TASN:
				if !asns[r.V] {
					asns[r.V] = true
					st.ASNs = append(st.ASNs, r.V)
				}
			case TWord:
				if !words[r.V] {
					words[r.V] = true
					st.Words = append(st.Words, r.V)
				}
			case TSensitive:
				if !sensitive[r.V] {
					sensitive[r.V] = true
					st.Sensitive = append(st.Sensitive, r.V)
				}
			case TRelation:
				if rel := (Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len}); !relations[rel] {
					relations[rel] = true
					st.Relations = append(st.Relations, rel)
				}
			}
		}
	}
	return st, nil
}

// frame wraps a raw record in its CRC envelope, as a ledger line.
func frame(raw string) string {
	return fmt.Sprintf(`{"c":%d,"r":%s}`+"\n", crc32.ChecksumIEEE([]byte(raw)), raw)
}

// writeSegment writes a segment file from lines (each with its newline).
func writeSegment(t *testing.T, dir string, seg int, lines ...string) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.jsonl", seg))
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
		t.Fatal(err)
	}
}

// header is a segment's open line under testFP.
func header(seg int) string {
	return frame(fmt.Sprintf(`{"t":"open","schema":%q,"salt_fp":%q,"seg":%d}`, Schema, testFP, seg))
}

// copyDir copies every file of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sessionsLedger writes a ledger of four segments through the Ledger's
// own Append/Commit: each session re-appends part of what the earlier
// ones committed (dead weight replay must skip) and a later, conflicting
// pair for an address already mapped (first sight wins). It stays under
// the automatic compaction floor, so every segment stays on disk.
func sessionsLedger(t *testing.T, dir string) {
	t.Helper()
	for sess := 0; sess < 4; sess++ {
		l, err := Open(dir, testFP)
		if err != nil {
			t.Fatalf("Open session %d: %v", sess, err)
		}
		for batch := 0; batch < 3; batch++ {
			var recs []Record
			for i := 0; i < 25; i++ {
				in := uint32(sess*30 + batch*9 + i)
				recs = append(recs,
					Record{T: TIP, In: in, Out: in*2654435761 | 1},
					Record{T: TOrigIP, In: in ^ 0x0a000000},
					Record{T: TWord, V: fmt.Sprintf("w%d", in%23)})
			}
			recs = append(recs,
				Record{T: TIP, In: 3, Out: uint32(1000 + sess)}, // conflicts with the first session's pair for 3
				Record{T: TASN, V: fmt.Sprint(64512 + sess%2)},
				Record{T: TSensitive, V: "s" + fmt.Sprint(batch)},
				Record{T: TRelation, ASN: 7018, Prefix: 0x0c000000, Len: 8 + sess%2})
			if err := l.Append(recs...); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Appended but never committed: the designed crash window.
		if err := l.Append(Record{T: TIP, In: 9999, Out: 1}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl")); len(segs) != 4 {
		t.Fatalf("sessions ledger spans %d segments, want 4", len(segs))
	}
}

// TestOpenMatchesReferenceReplay: the State Open replays equals the
// reference replay's, and a ledger the reference finds corrupt fails
// Open with ErrCorrupt at the same segment and line.
func TestOpenMatchesReferenceReplay(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"sessions", sessionsLedger},
		{"compaction crash window", func(t *testing.T, dir string) {
			// Old segments and the snapshot that summarizes them, both on
			// disk, as a crash between the snapshot's fsync and the
			// removals leaves them.
			sessionsLedger(t, dir)
			old := t.TempDir()
			copyDir(t, dir, old)
			l, err := Open(dir, testFP)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Record{T: TIP, In: 5000, Out: 5001}, Record{T: TIP, In: 3, Out: 7}); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			copyDir(t, old, dir)
		}},
		{"non-canonical lines", func(t *testing.T, dir string) {
			writeSegment(t, dir, 1, header(1),
				frame(`{"t":"ip","in":1,"out":2}`),
				frame(`{"t":"ip","out":7}`),              // in:0 omitted, as json.Marshal writes it
				frame(`{"t":"ip","in":0,"out":8}`),       // in:0 written out: a later pair for 0
				frame(`{"out":4,"in":3,"t":"ip"}`),       // reordered keys
				frame(`{"t":"ip", "in":5, "out":6}`),     // whitespace
				frame(`{"t":"\u0069p","in":9,"out":10}`), // escaped type
				frame(`{"t":"oip","in":0}`),
				frame(`{"t":"oip"}`),
				frame(`{"in":11,"t":"oip"}`),
				frame(`{"t":"word","v":"caf\u00e9"}`),
				frame(`{"t":"word","v":"café"}`), // the same word, unescaped
				frame(`{"t":"word","v":"tab\there"}`),
				fmt.Sprintf(`{"r":%s,"c":%d}`+"\n", `{"t":"ip","in":12,"out":13}`, crc32.ChecksumIEEE([]byte(`{"t":"ip","in":12,"out":13}`))),
				frame(`{"t":"ip","in":1,"out":99}`), // a later, conflicting pair for 1
				frame(`{"t":"commit","n":14}`))
		}},
		{"torn tail", func(t *testing.T, dir string) {
			writeSegment(t, dir, 1, header(1),
				frame(`{"t":"ip","in":1,"out":2}`),
				frame(`{"t":"commit","n":1}`),
				frame(`{"t":"ip","in":3,"out":4}`),
				`{"c":123,"r":{"t":"ip","in":`)
			writeSegment(t, dir, 2, header(2),
				frame(`{"t":"ip","in":5,"out":6}`),
				frame(`{"t":"commit","n":1}`),
				frame(`{"t":"oip","in":5}`)[:20])
		}},
		{"crc failure in the committed region", func(t *testing.T, dir string) {
			bad := frame(`{"t":"ip","in":3,"out":4}`)
			bad = strings.Replace(bad, `"out":4`, `"out":5`, 1)
			writeSegment(t, dir, 1, header(1),
				frame(`{"t":"ip","in":1,"out":2}`),
				frame(`{"t":"commit","n":1}`))
			writeSegment(t, dir, 2, header(2),
				frame(`{"t":"oip","in":1}`),
				bad,
				frame(`{"t":"commit","n":2}`))
		}},
		{"bad line in the committed region", func(t *testing.T, dir string) {
			writeSegment(t, dir, 1, header(1),
				frame(`{"t":"ip","in":1,"out":2}`),
				"\n",
				frame(`{"t":"ip","in":3,"out":4}`)[:25]+"\n",
				frame(`{"t":"commit","n":2}`))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			checkOpenMatchesReference(t, dir)
		})
	}
}

// checkOpenMatchesReference asserts that Open replays the ledger in dir
// to the reference replay's State — through State and Committed — or,
// when the reference finds a corrupt line, fails with ErrCorrupt naming
// the same segment and line.
func checkOpenMatchesReference(t *testing.T, dir string) {
	t.Helper()
	want, werr := referenceReplay(t, dir, testFP)
	l, err := Open(dir, testFP)
	if werr != nil {
		if err == nil {
			l.Close()
			t.Fatalf("Open succeeded; the reference replay fails with %v", werr)
		}
		if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
			t.Fatalf("Open err = %v; reference err = %v; want ErrCorrupt from both", err, werr)
		}
		at := func(e error) string { return strings.SplitN(strings.SplitN(e.Error(), "(", 2)[1], ":", 2)[0] }
		if at(err) != at(werr) {
			t.Fatalf("Open fails at %q, the reference at %q", at(err), at(werr))
		}
		return
	}
	if err != nil {
		t.Fatalf("Open: %v (the reference replays cleanly)", err)
	}
	defer l.Close()
	if got := l.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Open's State differs from the reference replay:\n got %+v\nwant %+v", got, want)
	}
	if got := l.Committed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Committed differs from the reference replay:\n got %+v\nwant %+v", got, want)
	}
}

// checkDecodeMatchesReference asserts that DecodeState reads blob, the
// bytes of the one segment in dir, to the reference replay's State and
// to the segment header's fingerprint — or, when the reference finds a
// corrupt line, fails with ErrCorrupt at the same line.
func checkDecodeMatchesReference(t *testing.T, dir string, blob []byte) {
	t.Helper()
	want, werr := referenceReplay(t, dir, testFP)
	got, fp, err := DecodeState(blob)
	if werr != nil {
		if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
			t.Fatalf("DecodeState err = %v; reference err = %v; want ErrCorrupt from both", err, werr)
		}
		at := func(e error) string { return strings.SplitN(strings.SplitN(e.Error(), " line ", 2)[1], ":", 2)[0] }
		if at(err) != at(werr) {
			t.Fatalf("DecodeState fails at line %s, the reference at line %s", at(err), at(werr))
		}
		return
	}
	if err != nil {
		t.Fatalf("DecodeState: %v (the reference replays cleanly)", err)
	}
	if fp != testFP {
		t.Fatalf("DecodeState fingerprint = %q, want %q", fp, testFP)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeState differs from the reference replay:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayLongLine: a line longer than replay's read buffer — a
// committed word record, a torn copy of it after the last commit, or a
// copy whose CRC fails before a commit — replays through Open and
// DecodeState as the reference replays it.
func TestReplayLongLine(t *testing.T) {
	word := strings.Repeat("long", replayBufSize/2) + "!"
	long := frame(fmt.Sprintf(`{"t":"word","v":%q}`, word))
	cases := map[string][]string{
		"committed, then torn": {header(1),
			frame(`{"t":"ip","in":1,"out":2}`),
			long,
			frame(`{"t":"commit","n":2}`),
			frame(`{"t":"ip","in":3,"out":4}`),
			long[:len(long)-len(long)/3]},
		"crc failure before a commit": {header(1),
			frame(`{"t":"ip","in":1,"out":2}`),
			strings.Replace(long, "!", "?", 1),
			frame(`{"t":"commit","n":2}`)},
	}
	for name, lines := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, 1, lines...)
			checkOpenMatchesReference(t, dir)
			checkDecodeMatchesReference(t, dir, []byte(strings.Join(lines, "")))
		})
	}
	dir := t.TempDir()
	writeSegment(t, dir, 1, cases["committed, then torn"]...)
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.State(); len(got.Words) != 1 || got.Words[0] != word || len(got.IPs) != 1 {
		t.Fatalf("replayed state holds %d words, %d pairs; want the long word and one pair", len(got.Words), len(got.IPs))
	}
}

// FuzzOpenMatchesReference: for any ledger a byte program writes, Open
// agrees with the reference replay (checkOpenMatchesReference), and a
// program that ends in a single segment, read as a snapshot blob,
// decodes through DecodeState as the reference replays it
// (checkDecodeMatchesReference). Each
// pair of bytes is one step: a record of any type over a few values (so
// duplicates and later, conflicting pairs are common), a commit, a new
// segment, a non-canonical line, a line whose CRC fails, or a torn line.
func FuzzOpenMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 6, 0})
	f.Add([]byte{0, 1, 1, 1, 6, 0, 7, 0, 0, 1, 0, 17, 6, 0, 0, 3})
	f.Add([]byte{2, 4, 3, 5, 4, 6, 5, 7, 6, 0, 9, 1, 6, 0})
	f.Add([]byte{8, 3, 0, 3, 6, 0, 7, 0, 9, 0, 0, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 400 {
			return
		}
		dir := t.TempDir()
		seg, lines := 1, []string{header(1)}
		record := func(r Record) {
			line, err := encodeLine(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
		for i := 0; i+1 < len(prog); i += 2 {
			v := prog[i+1]
			switch prog[i] % 10 {
			case 0:
				record(Record{T: TIP, In: uint32(v % 16), Out: uint32(v)})
			case 1:
				record(Record{T: TOrigIP, In: uint32(v % 16)})
			case 2:
				record(Record{T: TWord, V: fmt.Sprint("w", v%8)})
			case 3:
				record(Record{T: TASN, V: fmt.Sprint(v % 8)})
			case 4:
				record(Record{T: TSensitive, V: fmt.Sprint("s", v%8)})
			case 5:
				record(Record{T: TRelation, ASN: uint32(v % 4), Prefix: uint32(v%2) << 24, Len: int(v % 3)})
			case 6:
				record(Record{T: TCommit, N: int(v)})
			case 7:
				writeSegment(t, dir, seg, lines...)
				seg++
				lines = []string{header(seg)}
			case 8:
				lines = append(lines, frame(fmt.Sprintf(`{"out":%d,"t":"ip","in":%d}`, v, v%16)))
			case 9:
				if bad := frame(fmt.Sprintf(`{"t":"ip","in":%d,"out":%d}`, v%16, v)); v%2 == 0 {
					lines = append(lines, strings.Replace(bad, `"c":`, `"c":1`, 1))
				} else {
					lines = append(lines, bad[:len(bad)/2]+"\n")
				}
			}
		}
		writeSegment(t, dir, seg, lines...)
		checkOpenMatchesReference(t, dir)
		if seg == 1 {
			checkDecodeMatchesReference(t, dir, []byte(strings.Join(lines, "")))
		}
	})
}
