package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

const testFP = "fp-test-owner"

func sampleState() State {
	return State{
		IPs:       []Pair{{In: 0x0c000201, Out: 0xbb901103}, {In: 0x0a000001, Out: 0x55aa0001}},
		ASNs:      []string{"65001", "7018"},
		Words:     []string{"chicago", "backbone"},
		OrigIPs:   []uint32{0x0c000201, 0x0a000001},
		Sensitive: []string{"s3cret", "hunter2"},
		Relations: []Relation{{ASN: 7018, Prefix: 0x0c000200, Len: 24}},
	}
}

func appendState(t *testing.T, l *Ledger, s State) {
	t.Helper()
	if err := l.Append(s.records()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := sampleState()
	appendState(t, l, want)
	if got := l.State(); !got.Empty() {
		t.Fatalf("uncommitted appends visible in State: %+v", got)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := l.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-commit State = %+v, want %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh Open replays to the identical state.
	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed State = %+v, want %+v", got, want)
	}
}

func TestLedgerUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	committed := State{IPs: []Pair{{In: 1, Out: 2}}}
	appendState(t, l, committed)
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Appended but never committed: the designed crash window.
	if err := l.Append(Record{T: TIP, In: 9, Out: 10}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.State(); !reflect.DeepEqual(got, committed) {
		t.Fatalf("replay kept uncommitted tail: %+v", got)
	}
}

func TestLedgerTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	committed := State{IPs: []Pair{{In: 1, Out: 2}}, Words: []string{"w"}}
	appendState(t, l, committed)
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-write: a torn, truncated line after the last
	// commit.
	seg := filepath.Join(dir, "seg-000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.WriteString(`{"c":123,"r":{"t":"ip","in":`); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.State(); !reflect.DeepEqual(got, committed) {
		t.Fatalf("torn tail changed replayed state: %+v", got)
	}
}

func TestLedgerCorruptionBeforeCommitFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendState(t, l, State{IPs: []Pair{{In: 1, Out: 2}}, ASNs: []string{"65001"}})
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a byte inside a committed record's payload: the CRC must
	// catch it and Open must refuse.
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	i := bytes.Index(data, []byte("65001"))
	if i < 0 {
		t.Fatalf("test fixture: payload not found in segment")
	}
	data[i] = '9'
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	if _, err := Open(dir, testFP); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on pre-commit corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestLedgerSaltMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendState(t, l, State{IPs: []Pair{{In: 1, Out: 2}}})
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	l.Close()
	if _, err := Open(dir, "some-other-owner"); !errors.Is(err, ErrSaltMismatch) {
		t.Fatalf("Open under wrong salt fp: err = %v, want ErrSaltMismatch", err)
	}
}

func TestLedgerMultiSessionOrderStable(t *testing.T) {
	dir := t.TempDir()
	// Three sessions, each appending a batch; insertion order across
	// sessions must replay exactly.
	var want State
	for sess := 0; sess < 3; sess++ {
		l, err := Open(dir, testFP)
		if err != nil {
			t.Fatalf("Open session %d: %v", sess, err)
		}
		for i := 0; i < 5; i++ {
			in := uint32(sess*100 + i)
			rec := Record{T: TIP, In: in, Out: in ^ 0xffffffff}
			if err := l.Append(rec); err != nil {
				t.Fatalf("Append: %v", err)
			}
			want.IPs = append(want.IPs, Pair{In: rec.In, Out: rec.Out})
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("final Open: %v", err)
	}
	defer l.Close()
	if got := l.State(); !reflect.DeepEqual(got.IPs, want.IPs) {
		t.Fatalf("cross-session replay order:\n got %v\nwant %v", got.IPs, want.IPs)
	}
}

func TestLedgerCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := sampleState()
	appendState(t, l, want)
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Re-append the same records many times (pure dead weight), then
	// force compaction.
	for i := 0; i < 10; i++ {
		appendState(t, l, want)
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("post-compact segments = %d, want 1", n)
	}
	if got := l.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compact State = %+v, want %+v", got, want)
	}
	// Uncommitted appends survive compaction (still uncommitted).
	if err := l.Append(Record{T: TWord, V: "late"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("post-compact Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := l2.State()
	if !reflect.DeepEqual(got.IPs, want.IPs) {
		t.Fatalf("compacted IPs = %v, want %v", got.IPs, want.IPs)
	}
	wantWords := append(append([]string(nil), want.Words...), "late")
	if !reflect.DeepEqual(got.Words, wantWords) {
		t.Fatalf("compacted Words = %v, want %v", got.Words, wantWords)
	}
}

func TestLedgerAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l.compactFloor = 8 // shrink the churn floor for the test
	// A tiny live state with heavy duplicate traffic crosses the
	// threshold and compacts on Commit.
	for i := 0; i < 20; i++ {
		if err := l.Append(Record{T: TIP, In: 1, Out: 2}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("auto-compaction did not run: segments = %d", n)
	}
	if got := l.State(); len(got.IPs) != 1 {
		t.Fatalf("live state after auto-compaction: %+v", got)
	}
	l.Close()
}

func TestEncodeDecodeState(t *testing.T) {
	want := sampleState()
	blob, err := EncodeState(&want, testFP)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	got, fp, err := DecodeState(blob)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if fp != testFP {
		t.Fatalf("decoded salt fp = %q, want %q", fp, testFP)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded state = %+v, want %+v", got, want)
	}

	// Truncated blob (no commit reached): decodes empty, not garbage.
	cut := blob[:len(blob)/2]
	for len(cut) > 0 && cut[len(cut)-1] != '\n' {
		cut = cut[:len(cut)-1]
	}
	st, _, err := DecodeState(cut)
	if err != nil {
		t.Fatalf("DecodeState(truncated): %v", err)
	}
	if !st.Empty() {
		t.Fatalf("truncated blob decoded non-empty state: %+v", st)
	}

	// Foreign bytes are rejected.
	if _, _, err := DecodeState([]byte("ipa1\x00legacy")); !errors.Is(err, ErrSchema) {
		t.Fatalf("DecodeState(foreign) err = %v, want ErrSchema", err)
	}
}

func TestDecodeStateCorruption(t *testing.T) {
	want := sampleState()
	blob, err := EncodeState(&want, testFP)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	s := string(blob)
	i := strings.Index(s, "chicago")
	if i < 0 {
		t.Fatalf("fixture: payload not found")
	}
	bad := []byte(s[:i] + "Xhicago" + s[i+len("chicago"):])
	if _, _, err := DecodeState(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeState(corrupt) err = %v, want ErrCorrupt", err)
	}
}

func TestCrashHookBetweenAppendAndCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	committed := State{IPs: []Pair{{In: 1, Out: 2}}}
	appendState(t, l, committed)
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Arm the crash hook to panic between append and the commit record:
	// the pre-crash flush reaches disk (worst case), but no commit does.
	SetCrashHook(func(event string) {
		if event == "commit" {
			panic("simulated crash before commit record")
		}
	})
	defer SetCrashHook(nil)
	func() {
		defer func() { recover() }()
		_ = l.Append(Record{T: TIP, In: 99, Out: 100})
		_ = l.Commit()
	}()
	SetCrashHook(nil)
	// Simulate process death: the buffered writer may or may not have
	// flushed; force the worst case by flushing what the dying process
	// had written.
	l.w.Flush()
	l.f.Close()

	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("post-crash Open: %v", err)
	}
	defer l2.Close()
	if got := l2.State(); !reflect.DeepEqual(got, committed) {
		t.Fatalf("post-crash replay = %+v, want %+v", got, committed)
	}
}

// TestCompactionRacesAppendCommit drives Compact concurrently against
// Append/Commit traffic, for the race detector as much as for the
// assertions: writer goroutines commit distinct IP pairs while a
// compactor goroutine hammers Compact and the lowered churn floor lets
// Commit's automatic compaction fire too. Every committed pair must be
// present afterwards and again after a fresh replay — compaction may
// reshape segments, never state.
func TestCompactionRacesAppendCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l.compactFloor = 1 // compact eagerly: maximize interleavings

	const writers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				in := uint32(w+1)<<16 | uint32(i+1)
				if err := l.Append(Record{T: TIP, In: in, Out: ^in}); err != nil {
					t.Errorf("writer %d: Append: %v", w, err)
					return
				}
				if err := l.Commit(); err != nil {
					t.Errorf("writer %d: Commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan int, 1)
	go func() {
		// Compact before checking stop: under heavy scheduler load the
		// writers can all finish before this goroutine first runs, and
		// the test must still observe at least one compaction.
		n := 0
		for {
			if err := l.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				compacted <- n
				return
			}
			n++
			select {
			case <-stop:
				compacted <- n
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-compacted; n == 0 {
		t.Fatal("compactor never ran")
	}
	if t.Failed() {
		t.FailNow()
	}

	want := make(map[uint32]uint32, writers*perWriter)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			in := uint32(w+1)<<16 | uint32(i+1)
			want[in] = ^in
		}
	}
	check := func(label string, s State) {
		t.Helper()
		got := make(map[uint32]uint32, len(s.IPs))
		for _, p := range s.IPs {
			got[p.In] = p.Out
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d pairs survived, want %d", label, len(got), len(want))
		}
	}
	check("live state", l.State())
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopen after racing compaction: %v", err)
	}
	defer l2.Close()
	check("replayed state", l2.State())
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	for _, content := range []string{"first\n", "second, longer than the first\n"} {
		if err := WriteFileAtomic(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("content = %q, want %q", got, content)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o600 {
			t.Errorf("perm = %v, want 0600", fi.Mode().Perm())
		}
		assertOnlyEntries(t, dir, "rec.json")
	}
}

func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()

	// A missing parent directory fails before anything is created.
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "rec.json"), []byte("x"), 0o600); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	assertOnlyEntries(t, dir)

	// A rename that fails (the target is a non-empty directory) leaves
	// the previous target and its content intact, and no temp file.
	target := filepath.Join(dir, "rec.json")
	if err := os.Mkdir(target, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), []byte("previous"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("new"), 0o600); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	got, err := os.ReadFile(filepath.Join(target, "keep"))
	if err != nil || string(got) != "previous" {
		t.Errorf("previous content = %q, %v; want \"previous\"", got, err)
	}
	assertOnlyEntries(t, dir, "rec.json")
}

// assertOnlyEntries fails unless dir holds exactly the named entries.
func assertOnlyEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s holds %q, want %q", dir, got, want)
	}
}
