package confanon

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"confanon/internal/netgen"
)

// recordLedger runs one `confanon -strict -state-dir DIR -workers 2`
// over files under salt, leaving the owner's mapping ledger in dir (one
// segment, committed at every clean file boundary).
func recordLedger(tb testing.TB, dir string, files map[string]string, salt []byte) {
	tb.Helper()
	ms, err := OpenMappingStore(dir, salt)
	if err != nil {
		tb.Fatal(err)
	}
	a := New(Options{Salt: salt, Strict: true})
	if err := a.UseStore(ms); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.ParallelCorpusContext(context.Background(), files, 2); err != nil {
		tb.Fatal(err)
	}
	if err := a.SyncStore(); err != nil {
		tb.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		tb.Fatal(err)
	}
}

// ledgerCopy holds a recorded ledger's segments in memory and lays them
// out afresh in a directory, so every Open replays the same bytes (an
// Open leaves a new, uncommitted segment behind).
type ledgerCopy map[string][]byte

func readLedger(tb testing.TB, dir string) ledgerCopy {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	c := ledgerCopy{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		c[e.Name()] = b
	}
	return c
}

// reset empties dir and writes the copied segments into it.
func (c ledgerCopy) reset(tb testing.TB, dir string) {
	tb.Helper()
	if err := os.RemoveAll(dir); err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		tb.Fatal(err)
	}
	for name, b := range c {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			tb.Fatal(err)
		}
	}
}

// ownerLedger records the benchmark ledger: one netgen AS of 60
// backbone routers (about 25k lines, the size of one owner in
// confperf's incremental-1pct workload), about 11k `ip` and 11k `oip`
// records.
func ownerLedger(b *testing.B) (ledgerCopy, []byte) {
	n := netgen.Generate(netgen.Params{Seed: 1, Kind: netgen.Backbone, Routers: 60})
	salt := []byte(n.Salt)
	dir := b.TempDir()
	recordLedger(b, dir, n.RenderAll(), salt)
	return readLedger(b, dir), salt
}

// BenchmarkLedgerOpen times OpenMappingStore — reading, CRC-checking and
// replaying every committed record of one owner's ledger — and Close.
func BenchmarkLedgerOpen(b *testing.B) {
	led, salt := ownerLedger(b)
	dir := filepath.Join(b.TempDir(), "state")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		led.reset(b, dir)
		b.StartTimer()
		ms, err := OpenMappingStore(dir, salt)
		if err != nil {
			b.Fatal(err)
		}
		if err := ms.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUseStore times attaching a fresh Session to an open ledger:
// the replayed pairs rebuild the shaped tree, each verified under the
// salt, and the recorder entries, sensitive tokens and relations merge
// into the Session.
func BenchmarkUseStore(b *testing.B) {
	led, salt := ownerLedger(b)
	dir := filepath.Join(b.TempDir(), "state")
	led.reset(b, dir)
	ms, err := OpenMappingStore(dir, salt)
	if err != nil {
		b.Fatal(err)
	}
	defer ms.Close()
	prog := Compile(Options{Salt: salt, Strict: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.NewSession().UseStore(ms); err != nil {
			b.Fatal(err)
		}
	}
}
