package confanon_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"testing"

	"confanon"
	"confanon/internal/netgen"
)

// recordCache runs a recording incremental run over files and returns
// the encoded cache with the mapping state it was recorded under.
func recordCache(t testing.TB, opts confanon.Options, files map[string]string) (blob, state []byte) {
	t.Helper()
	a := confanon.New(opts)
	res, cache, err := a.IncrementalCorpusContext(context.Background(), files, nil, 2)
	if err != nil || !res.Ok() {
		t.Fatalf("recording run: err=%v failed=%v", err, res.Failed())
	}
	blob, err = cache.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob, a.SaveMapping()
}

func smallCorpus() (confanon.Options, map[string]string) {
	n := netgen.Generate(netgen.Params{Seed: 4300, Kind: netgen.Enterprise, Routers: 3})
	return confanon.Options{Salt: []byte(n.Salt)}, n.RenderAll()
}

// TestDecodeCorpusCacheRejects: a v1 JSON cache, a v2 blob and a v3
// blob are rejected with a schema error; every truncation of a v4 blob
// and every one-byte flip of it fail to decode.
func TestDecodeCorpusCacheRejects(t *testing.T) {
	v1 := `{"schema":"confanon.filecache/v1","salt_fp":"a","opts_fp":"b","files":{"r1":{"sum":"c","lines":[{"h":"1","o":"hostname x","s":{}}]}}}`
	v2, err := os.ReadFile("testdata/filecache-v2")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("testdata/filecache-v3")
	if err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string][]byte{"v1": []byte(v1), "v2": v2, "v3": v3} {
		if _, err := confanon.DecodeCorpusCache(old); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("%s blob: err = %v, want a schema error", name, err)
		}
	}
	opts, files := smallCorpus()
	blob, _ := recordCache(t, opts, files)
	if _, err := confanon.DecodeCorpusCache(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := confanon.DecodeCorpusCache(blob[:n]); err == nil {
			t.Fatalf("blob truncated to %d of %d bytes decoded", n, len(blob))
		}
	}
	flipped := make([]byte, len(blob))
	for i := range blob {
		copy(flipped, blob)
		flipped[i] ^= 0xff
		if _, err := confanon.DecodeCorpusCache(flipped); err == nil {
			t.Fatalf("blob with byte %d flipped decoded", i)
		}
	}
}

// TestIncrementalDecodesOnlyChangedFiles: when K of N files change, a
// run serves the other N−K from the cache, its output equals a full
// run's, and the next cache carries the N−K files' sections unchanged.
func TestIncrementalDecodesOnlyChangedFiles(t *testing.T) {
	n := netgen.Generate(netgen.Params{Seed: 4400, Kind: netgen.Backbone, Routers: 10})
	files := n.RenderAll()
	opts := confanon.Options{Salt: []byte(n.Salt), Strict: true}
	blob, state := recordCache(t, opts, files)

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	// Two files get a middle line edited, one is cut to a prefix of its
	// lines.
	const k = 3
	edited := make(map[string]string, len(files))
	for name, text := range files {
		edited[name] = text
	}
	for i, name := range names[:k] {
		lines := strings.Split(edited[name], "\n")
		if i == k-1 {
			lines = append(lines[:len(lines)/2], "")
		} else {
			lines[len(lines)/2] = " description lazy-decode-edit"
		}
		edited[name] = strings.Join(lines, "\n")
	}

	prior, err := confanon.DecodeCorpusCache(blob)
	if err != nil {
		t.Fatalf("DecodeCorpusCache: %v", err)
	}
	a := confanon.New(opts)
	if err := a.LoadMapping(state); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	res, next, err := a.IncrementalCorpusContext(context.Background(), edited, prior, 2)
	if err != nil || !res.Ok() {
		t.Fatalf("incremental run: err=%v failed=%v", err, res.Failed())
	}
	if got := res.Incremental.FilesReused; got != len(files)-k {
		t.Errorf("reused %d files, want %d", got, len(files)-k)
	}
	full := confanon.New(opts)
	if err := full.LoadMapping(state); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	fullRes, err := full.ParallelCorpusContext(context.Background(), edited, 2)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	for name, want := range fullRes.Outputs() {
		if got := res.Files[name].Text; got != want {
			t.Errorf("%s: incremental output differs from the full run", name)
		}
	}

	blob2, err := next.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	before, err := confanon.CacheSections(blob)
	if err != nil {
		t.Fatal(err)
	}
	after, err := confanon.CacheSections(blob2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if same := after[name] == before[name]; same != (i >= k) {
			t.Errorf("%s: section unchanged = %t, want %t", name, same, i >= k)
		}
	}
}

// cacheBody returns blob without its trailing checksum.
func cacheBody(blob []byte) []byte { return blob[:len(blob)-4] }

// withChecksum returns body followed by its valid checksum.
func withChecksum(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// FuzzDecodeCorpusCache: no input makes decoding a cache or encoding it
// again panic, and a decoded cache re-encodes to a blob that decodes to
// the same encoding. Each input is tried as a whole blob and, to get
// past the checksum, as a blob body with its checksum appended.
func FuzzDecodeCorpusCache(f *testing.F) {
	// A tiny seed keeps the fuzzer's minimization of new inputs quick.
	blob, _ := recordCache(f, confanon.Options{Salt: []byte("fuzz")}, map[string]string{
		"r1": "hostname r1\nbanner motd ^\nhi\n^\ninterface Ethernet0\n ip address 12.1.2.3 255.255.255.0\n! note\n",
		"r2": "",
	})
	f.Add(blob)
	f.Add(cacheBody(blob))
	// A strict recording with a quarantined file fills the gate record.
	_, strict, err := confanon.New(confanon.Options{Salt: []byte("fuzz"), Strict: true}).IncrementalCorpusContext(
		context.Background(), map[string]string{"q": "ipv6 route 2620:0:861::/48 Null0\n"}, nil, 1)
	if err != nil {
		f.Fatal(err)
	}
	sblob, err := strict.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cacheBody(sblob))
	f.Add([]byte(confanon.CorpusCacheSchema + "\n"))
	f.Add([]byte(`{"schema":"confanon.filecache/v1","files":{}}`))
	for _, old := range []string{"testdata/filecache-v2", "testdata/filecache-v3"} {
		blob, err := os.ReadFile(old)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withChecksum(data)} {
			c, err := confanon.DecodeCorpusCache(in)
			if err != nil {
				continue
			}
			again, err := c.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			c2, err := confanon.DecodeCorpusCache(again)
			if err != nil {
				t.Fatalf("re-encoded cache does not decode: %v", err)
			}
			third, err := c2.Encode()
			if err != nil || !bytes.Equal(third, again) {
				t.Fatalf("re-encoding is not stable (err=%v)", err)
			}
		}
	})
}
