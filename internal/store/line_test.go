package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lineFixtures are records of every type, with string values that
// encodeLine escapes (quote, backslash, HTML characters, U+2028, invalid
// UTF-8, a control byte) next to ones it writes raw.
func lineFixtures() []Record {
	recs := []Record{
		{T: TOpen, Schema: Schema, SaltFP: testFP, Seg: 1},
		{T: TCommit, N: 12},
		{T: TCommit},
		{T: TIP, In: 0x0c000201, Out: 0xbb901103},
		{T: TIP, Out: 0xffffffff},
		{T: TIP, In: 0xffffffff},
		{T: TIP, In: 1, Out: 1},
		{T: TIP},
		{T: TOrigIP, In: 0x0a000001},
		{T: TOrigIP, In: 0xffffffff},
		{T: TOrigIP},
		{T: TIP, In: 7, V: "v"},
		{T: TOrigIP, In: 7, Out: 8},
		{T: TRelation, ASN: 7018, Prefix: 0x0c000200, Len: 24},
		{T: TRelation},
		{},
	}
	for _, v := range []string{"65001", "chicago", "", "quo\"te", `back\slash`, "<tag>&amp;",
		"line\u2028sep", "para\u2029sep", "bad\xffutf8", "tab\there", "ünïcode"} {
		recs = append(recs, Record{T: TASN, V: v}, Record{T: TWord, V: v}, Record{T: TSensitive, V: v})
	}
	return recs
}

// errClass names the kind of error decodeLine reports; messages from
// encoding/json differ in detail, the classes may not.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errCRC):
		return "crc"
	case strings.HasPrefix(err.Error(), "bad envelope"):
		return "envelope"
	case strings.HasPrefix(err.Error(), "bad record"):
		return "record"
	}
	return "other: " + err.Error()
}

// checkDecodeLine asserts that decodeLine agrees with the encoding/json
// path on line. It decodes into a Record left over from another line, as
// replay does, so a field decodeLine fails to reset shows.
func checkDecodeLine(t *testing.T, line []byte) {
	t.Helper()
	got := Record{T: TWord, In: 1, Out: 2, V: "stale", ASN: 3, Prefix: 4, Len: 5, Schema: "s", SaltFP: "f", Seg: 6, N: 7}
	gerr := decodeLine(line, &got)
	want, werr := decodeLineJSON(line)
	if gc, wc := errClass(gerr), errClass(werr); gc != wc || got != want {
		t.Fatalf("decodeLine(%q) = %+v, %s; encoding/json gives %+v, %s", line, got, gc, want, wc)
	}
}

func TestDecodeLineMatchesJSON(t *testing.T) {
	for _, r := range lineFixtures() {
		line, err := encodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1]
		checkDecodeLine(t, line)
		var got Record
		if err := decodeLine(line, &got); err != nil {
			t.Fatalf("decodeLine(%q): %v", line, err)
		}
		// Invalid UTF-8 is stored as U+FFFD; everything else round-trips.
		if want := r; got != want && !strings.Contains(r.V, "\xff") {
			t.Fatalf("round trip of %+v gave %+v", want, got)
		}
		// Only lines with an escape sequence leave the byte-level path.
		if _, _, ok := parseLine(line, new(Record)); ok == strings.Contains(string(line), `\`) {
			t.Errorf("parseLine(%q) ok = %t", line, ok)
		}
	}
	// Lines outside encodeLine's exact form, valid or not.
	for _, line := range []string{
		`{"r":{"t":"ip","in":1,"out":2},"c":1914151082}`,
		`{"c":1914151082, "r":{"t":"ip","in":1,"out":2}}`,
		`{"c":1914151082,"r":{"in":1,"t":"ip","out":2}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":2,"v":"x"}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":2}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":2}}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":02}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":4294967296}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"out":}}`,
		`{"c":1914151082,"r":{"t":"ip","in":1,"ou":2}}`,
		`{"c":1,"r":{"t":"ip","in":0,"out":2}}`,
		`{"c":1,"r":{"t":"oip","in":0}}`,
		`{"c":1,"r":{"t":"oip","in":1,"out":2}}`,
		`{"c":1,"r":{"t":"oip","in":1 }}`,
		`{"c":1,"r":{"t":"ipx","in":1,"out":2}}`,
		`{"c":4294967296,"r":{"t":"ip"}}`,
		`{"c":01,"r":{}}`,
		`{"c":1,"r":{"t":"ip","in":-1}}`,
		`{"c":1,"r":{"t":"ip","in":1.5}}`,
		`{"c":1,"r":{"t":"ip","in":1e3}}`,
		`{"c":1,"r":{"t":"ip","t":"oip"}}`,
		`{"c":1,"r":{"T":"ip"}}`,
		`{"c":1,"r":{"t":"ip","len":99999999999999999999}}`,
		`{"c":1,"r":{"t":"ip","len":999999999999999999}}`,
		`{"c":1,"r":{"t":"ip","len":9223372036854775807}}`,
		`{"c":1,"r":{"t":"ip","in":4294967295}}`,
		`{"c":1,"r":{"t":"ip"}}x`,
		`{"c":1,"r":{"t":"ip"}`,
		`{"c":1,"r":}`,
		`{"c":1,"r":[]}`,
		`{"c":0,"r":{}}`,
		"{\"c\":0,\"r\":{\"v\":\"a\x01b\"}}",
		"{\"c\":0,\"r\":{\"v\":\"a\xffb\"}}",
		`{"c":`,
		``,
	} {
		checkDecodeLine(t, []byte(line))
	}
}

// TestLedgerWrittenBeforeFastDecoder opens a ledger segment recorded by
// the encoding/json decoder's release and checks the replayed State,
// and that every one of its lines decodes as encoding/json decodes it.
func TestLedgerWrittenBeforeFastDecoder(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", "ledger-v1", "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(seg), "\n"), "\n") {
		checkDecodeLine(t, []byte(line))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), seg, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	want := State{
		IPs:       []Pair{{In: 0x0c000201, Out: 0xbb901103}, {In: 0x0a000001, Out: 0x55aa0001}, {In: 0, Out: 0xffffffff}, {In: 7, Out: 8}},
		ASNs:      []string{"65001", "7018"},
		Words:     []string{"chicago", "quo\"te", `back\slash`, "<tag>&amp;", "line\u2028sep", "bad\uFFFDutf8", "tab\there", "ünïcode"},
		OrigIPs:   []uint32{0x0c000201, 0x0a000001},
		Sensitive: []string{"s3cret", ""},
		Relations: []Relation{{ASN: 7018, Prefix: 0x0c000200, Len: 24}, {}},
	}
	if got := l.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state = %#v\nwant %#v", got, want)
	}
}

// TestEncodeStateBytesUnchanged pins EncodeState's output to the bytes
// the encoding/json decoder's release wrote for the same State.
func TestEncodeStateBytesUnchanged(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "state-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := State{
		IPs:       []Pair{{In: 0x0c000201, Out: 0xbb901103}, {In: 0x0a000001, Out: 0x55aa0001}, {In: 0, Out: 0xffffffff}},
		ASNs:      []string{"65001", "7018"},
		Words:     []string{"chicago", "quo\"te", `back\slash`, "<tag>&amp;", "line\u2028sep", "bad\xffutf8", "tab\there", "ünïcode"},
		OrigIPs:   []uint32{0x0c000201, 0x0a000001},
		Sensitive: []string{"s3cret", ""},
		Relations: []Relation{{ASN: 7018, Prefix: 0x0c000200, Len: 24}, {}},
	}
	blob, err := EncodeState(&s, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(golden) {
		t.Fatalf("EncodeState bytes changed:\n got %q\nwant %q", blob, golden)
	}
}

// FuzzDecodeLine: for any input, decodeLine returns the Record and the
// class of error the encoding/json decode does.
func FuzzDecodeLine(f *testing.F) {
	for _, r := range lineFixtures() {
		line, err := encodeLine(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line[:len(line)-1])
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeLine(t, line)
	})
}
