package confanon

import (
	"confanon/internal/store"
)

// MappingStoreSchema identifies the durable mapping-ledger record layout
// (the header line of every segment carries it).
const MappingStoreSchema = store.Schema

// MappingStore is a durable, per-owner mapping ledger: a directory of
// append-only, CRC-framed, fsync-committed JSONL segments holding every
// mapping a Session has produced — IP pairs in insertion order, leak-
// recorder entries, sensitive tokens, declared relations. A Session
// attached to a store commits its mapping delta at every clean file
// boundary (the same commit points the provenance ledger uses; a file
// that dies mid-way commits nothing), so any replica that opens the
// directory replays to an identical mapping state even after a crash.
//
// The store holds cleartext-derived values (original addresses, leak-
// recorder tokens). Treat the directory with the same care as the salt:
// it is created 0700 with 0600 segments, and belongs on the same trust
// boundary as the secret itself.
type MappingStore struct {
	led *store.Ledger
}

// OpenMappingStore opens (creating if needed) the mapping ledger in dir,
// keyed to the given owner salt, and replays every committed record. A
// directory written under a different salt is refused — mixing mappings
// from two secrets would corrupt both corpora.
func OpenMappingStore(dir string, salt []byte) (*MappingStore, error) {
	led, err := store.Open(dir, store.SaltFingerprint(salt))
	if err != nil {
		return nil, err
	}
	return &MappingStore{led: led}, nil
}

// Dir returns the store's directory.
func (m *MappingStore) Dir() string { return m.led.Dir() }

// Compact folds the committed state into a single snapshot segment and
// removes the old segments. Routine growth is compacted automatically;
// this forces it (e.g. before archiving the directory).
func (m *MappingStore) Compact() error { return m.led.Compact() }

// Close flushes buffered appends and closes the active segment.
// Uncommitted appends are NOT committed — only clean file boundaries
// commit (see UseStore).
func (m *MappingStore) Close() error { return m.led.Close() }

// UseStore attaches the Session to the store: the store's replayed
// state is restored into the Session (so this run continues the prior
// runs' mapping exactly), and every subsequent clean file boundary
// commits the Session's mapping delta durably. Call before the first
// anonymization. Restore fails if the replayed pairs do not verify
// under this Session's salt.
//
// Commit failures during the run (a full disk, a vanished directory)
// are sticky and deliberately do not interrupt anonymization — the
// outputs are still correct; only durability is lost. SyncStore
// surfaces the first such error; callers that need durability (the CLI
// does) must treat it as run-fatal and discard the outputs, or re-run.
func (a *Anonymizer) UseStore(m *MappingStore) error {
	if err := a.sess.RestoreState(m.led.Committed()); err != nil {
		return err
	}
	a.sess.SetLedger(m.led)
	return nil
}

// SyncStore commits any mapping delta accumulated since the last clean
// file boundary and returns the first ledger error of the run, if any.
// Call at end of run, before MappingStore.Close.
func (a *Anonymizer) SyncStore() error { return a.sess.SyncLedger() }
