// Package store implements the durable per-owner mapping ledger: a
// crash-safe, append-only record of everything a confanon Session has
// resolved — IP mapping pairs in tree-insertion order, leak-recorder
// entries, operator-added sensitive tokens, declared relations — so that
// the mapping survives restarts and any replica holding the ledger can
// serve any owner consistently (the clearinghouse model of the paper's
// §7, where the same network's configs arrive repeatedly).
//
// # On-disk layout
//
// A ledger is a directory of JSONL segment files, seg-000001.jsonl,
// seg-000002.jsonl, ..., replayed in order. Every line is a CRC-framed
// envelope:
//
//	{"c":<crc32>,"r":{"t":"ip","in":201392643,"out":3146518787}}
//
// where c is the IEEE CRC-32 of the exact bytes of r. The first record
// of each segment is an "open" header carrying the schema
// (confanon.mapping/v1) and the owner's salt fingerprint; "commit"
// records mark durability points. Appends buffer in memory and reach the
// OS only at Commit, which writes a commit record and fsyncs — so the
// commit protocol gives exactly the batch layer's clean-file-boundary
// semantics: a crash mid-file (between appends, or between an append and
// its commit) loses nothing but the uncommitted suffix, which replay
// discards.
//
// # Recovery
//
// Open replays every segment. Records after the last valid commit —
// including a torn final line from a crash mid-write — are discarded
// silently (that is the designed crash window). A record that fails its
// CRC or does not parse *before* a later valid commit is corruption of
// durable data and fails Open with ErrCorrupt: the ledger never guesses
// at committed state.
//
// Replay is every -state-dir run's fixed cost, so it does each piece of
// work once. A line in the form encodeLine writes is parsed byte by byte
// (the ip and oip records, nearly all of a ledger, as whole forms),
// any other line through encoding/json, both into one reused Record; the
// CRC is checked either way. Records are appended to the state's lists
// as they come, and once every segment is in, one pass drops the values
// an earlier record already gave (first sight wins) and builds the
// dedup sets at their final size. A segment's bytes are dropped as soon
// as its records are in. Committed hands the replayed state to a reader
// without copying it.
//
// # Compaction
//
// Replay cost grows with dead weight (a segment per process restart,
// re-resolved pairs). Compact writes the entire live state as one fresh
// committed segment, fsyncs it, and deletes the older segments; a crash
// between those two steps leaves both, which is safe because replaying
// the old segments before the snapshot reproduces the identical state
// (every record type is idempotent under re-application). Commit
// triggers compaction automatically when the dead-weight ratio passes a
// threshold.
//
// # Sensitivity
//
// A ledger holds the owner's raw mapping — original addresses, the
// leak recorder's cleartext tokens — and is exactly as sensitive as the
// salt itself. Directories are created 0700 and segments 0600; treat the
// state directory like a key store, never like output.
package store

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"confanon/internal/retry"
)

// ioRetry shields the ledger's durability syscalls — the flush/fsync
// pair in Commit and compaction's segment removals — from transient
// failures (EINTR, EAGAIN, exhausted descriptors) under the shared
// backoff policy. No jitter: these retries run with the ledger lock
// held, and random extra sleep there serves nobody.
var ioRetry = retry.Default.NoJitter()

// SaltFingerprint derives the opaque owner identifier ledgers are keyed
// by: a domain-separated SHA-256 of the salt, hex-encoded. It names the
// owner without revealing the salt, so it is safe in file headers, paths,
// and logs.
func SaltFingerprint(salt []byte) string {
	h := sha256.Sum256(append([]byte("confanon.saltfp/"), salt...))
	return hex.EncodeToString(h[:])
}

// Schema identifies the segment layout; the "open" header of every
// segment carries it.
const Schema = "confanon.mapping/v1"

// Record types (the "t" field of a ledger record).
const (
	// TOpen is the segment header: schema, salt fingerprint, segment
	// index.
	TOpen = "open"
	// TCommit marks a durability point: replay applies records only up
	// to the last valid commit.
	TCommit = "commit"
	// TIP is one resolved IP mapping pair, in tree-insertion order
	// (replay order is the mapping: the shaped tree is order-dependent).
	TIP = "ip"
	// TASN is one leak-recorder entry: a public ASN the session mapped.
	TASN = "asn"
	// TWord is one leak-recorder entry: a word the session hashed.
	TWord = "word"
	// TOrigIP is one leak-recorder entry: an original address the
	// session mapped (recorded for the leak report's survival scan).
	TOrigIP = "oip"
	// TSensitive is one operator-added sensitive token.
	TSensitive = "sens"
	// TRelation is one declared (ASN, prefix) external relation.
	TRelation = "rel"
)

// Record is one ledger entry. The fields used depend on T: ip pairs use
// In/Out, string-valued entries (asn, word, sens) use V, original IPs
// use In, relations use ASN/Prefix/Len, the open header uses
// Schema/SaltFP/Seg, and commits use N (the cumulative record count the
// commit covers, a cheap consistency check on replay).
type Record struct {
	T string `json:"t"`

	In  uint32 `json:"in,omitempty"`
	Out uint32 `json:"out,omitempty"`
	V   string `json:"v,omitempty"`

	ASN    uint32 `json:"asn,omitempty"`
	Prefix uint32 `json:"prefix,omitempty"`
	Len    int    `json:"len,omitempty"`

	Schema string `json:"schema,omitempty"`
	SaltFP string `json:"salt_fp,omitempty"`
	Seg    int    `json:"seg,omitempty"`
	N      int    `json:"n,omitempty"`
}

// Pair is one resolved IP mapping pair (mirrors ipanon.Pair without the
// dependency; store stays stdlib-only).
type Pair struct{ In, Out uint32 }

// Relation is one declared (ASN, prefix, len) external relation.
type Relation struct {
	ASN    uint32
	Prefix uint32
	Len    int
}

// State is the replayed, committed content of a ledger: everything a
// Session needs to continue (or a replica to reproduce) an owner's
// mapping. IPs preserve insertion order — the shaped tree depends on it.
type State struct {
	IPs       []Pair
	ASNs      []string
	Words     []string
	OrigIPs   []uint32
	Sensitive []string
	Relations []Relation
}

// Empty reports whether the state carries nothing.
func (s *State) Empty() bool {
	return len(s.IPs) == 0 && len(s.ASNs) == 0 && len(s.Words) == 0 &&
		len(s.OrigIPs) == 0 && len(s.Sensitive) == 0 && len(s.Relations) == 0
}

// records flattens the state into replayable ledger records (IP pairs
// first, preserving insertion order).
func (s *State) records() []Record {
	recs := make([]Record, 0, len(s.IPs)+len(s.ASNs)+len(s.Words)+
		len(s.OrigIPs)+len(s.Sensitive)+len(s.Relations))
	for _, p := range s.IPs {
		recs = append(recs, Record{T: TIP, In: p.In, Out: p.Out})
	}
	for _, v := range s.ASNs {
		recs = append(recs, Record{T: TASN, V: v})
	}
	for _, v := range s.Words {
		recs = append(recs, Record{T: TWord, V: v})
	}
	for _, ip := range s.OrigIPs {
		recs = append(recs, Record{T: TOrigIP, In: ip})
	}
	for _, v := range s.Sensitive {
		recs = append(recs, Record{T: TSensitive, V: v})
	}
	for _, r := range s.Relations {
		recs = append(recs, Record{T: TRelation, ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
	}
	return recs
}

// seen is the state's dedup index: one set per record type, keyed the
// way first sight compares records of that type.
type seen struct {
	ips, origIPs           map[uint32]struct{}
	asns, words, sensitive map[string]struct{}
	relations              map[Relation]struct{}
}

// firstSight adds k to set and reports whether it was absent.
func firstSight[K comparable](set map[K]struct{}, k K) bool {
	n := len(set)
	set[k] = struct{}{}
	return len(set) > n
}

// firstSights keeps the elements of list whose key was absent from set
// (in order, in place) and adds every key to set.
func firstSights[T any, K comparable](list []T, set map[K]struct{}, key func(T) K) []T {
	kept := list[:0]
	for _, v := range list {
		if firstSight(set, key(v)) {
			kept = append(kept, v)
		}
	}
	return kept
}

// firstSight reports whether r's value is absent from the index, and
// adds it.
func (sn *seen) firstSight(r *Record) bool {
	switch r.T {
	case TIP:
		return firstSight(sn.ips, r.In)
	case TOrigIP:
		return firstSight(sn.origIPs, r.In)
	case TASN:
		return firstSight(sn.asns, r.V)
	case TWord:
		return firstSight(sn.words, r.V)
	case TSensitive:
		return firstSight(sn.sensitive, r.V)
	case TRelation:
		return firstSight(sn.relations, Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
	}
	return false
}

// add appends one data record's value to the state, duplicates and all.
func (s *State) add(r *Record) {
	switch r.T {
	case TIP:
		s.IPs = append(s.IPs, Pair{In: r.In, Out: r.Out})
	case TOrigIP:
		s.OrigIPs = append(s.OrigIPs, r.In)
	case TASN:
		s.ASNs = append(s.ASNs, r.V)
	case TWord:
		s.Words = append(s.Words, r.V)
	case TSensitive:
		s.Sensitive = append(s.Sensitive, r.V)
	case TRelation:
		s.Relations = append(s.Relations, Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
	}
}

// apply folds one committed data record into the state: its value is
// kept on first sight and skipped after. Re-application is therefore
// idempotent, IP insertion order included (a compacted snapshot replayed
// after the segments it summarizes changes nothing).
func (s *State) apply(r *Record, sn *seen) {
	if sn.firstSight(r) {
		s.add(r)
	}
}

// index drops every value already seen earlier in its list — first
// sight wins, as apply decides one record at a time — and returns the
// dedup index. Replay adds every record and indexes once at the end, so
// each set is sized once, from its list, and never grows during replay.
func (s *State) index() *seen {
	sn := &seen{
		ips:       make(map[uint32]struct{}, len(s.IPs)),
		origIPs:   make(map[uint32]struct{}, len(s.OrigIPs)),
		asns:      make(map[string]struct{}, len(s.ASNs)),
		words:     make(map[string]struct{}, len(s.Words)),
		sensitive: make(map[string]struct{}, len(s.Sensitive)),
		relations: make(map[Relation]struct{}, len(s.Relations)),
	}
	str := func(v string) string { return v }
	s.IPs = firstSights(s.IPs, sn.ips, func(p Pair) uint32 { return p.In })
	s.OrigIPs = firstSights(s.OrigIPs, sn.origIPs, func(ip uint32) uint32 { return ip })
	s.ASNs = firstSights(s.ASNs, sn.asns, str)
	s.Words = firstSights(s.Words, sn.words, str)
	s.Sensitive = firstSights(s.Sensitive, sn.sensitive, str)
	s.Relations = firstSights(s.Relations, sn.relations, func(r Relation) Relation { return r })
	return sn
}

// Errors.
var (
	// ErrCorrupt reports a record inside the committed region that fails
	// its CRC or does not parse — durable data the ledger cannot trust.
	ErrCorrupt = errors.New("store: ledger corrupt inside committed region")
	// ErrSchema reports a segment whose open header carries a foreign
	// schema.
	ErrSchema = errors.New("store: not a " + Schema + " ledger")
	// ErrSaltMismatch reports a ledger written under a different owner
	// salt than the one opening it — replaying it would silently produce
	// an inconsistent mapping, so Open refuses.
	ErrSaltMismatch = errors.New("store: ledger salt fingerprint mismatch")
)

// crashHook, when set, is invoked at the named points of the commit
// protocol ("append" after records reach the segment buffer, "commit"
// just before the commit record is written, "committed" after the
// fsync). Chaos tests inject panics here to simulate a crash between
// append and commit; production code never sets it.
var crashHook func(event string)

// SetCrashHook installs (or, with nil, removes) the chaos-testing hook.
func SetCrashHook(h func(event string)) { crashHook = h }

func fireCrashHook(event string) {
	if crashHook != nil {
		crashHook(event)
	}
}

// Ledger is one owner's open mapping ledger: the replayed committed
// state plus an active segment receiving appends. Safe for concurrent
// use; Append and Commit serialize internally (callers batch appends at
// clean file boundaries, so the lock is never on a per-token path).
type Ledger struct {
	mu sync.Mutex

	dir    string
	saltFP string

	f        *os.File
	w        *bufio.Writer
	seg      int
	segRecs  int // records written to the active segment (committed + pending)
	pending  []Record
	state    State
	seen     *seen
	closed   bool
	diskRecs int // data records replayed from older segments (incl. duplicates)

	// CompactThreshold is the dead-weight ratio (total replayed records
	// across segments vs live state records) beyond which Commit
	// compacts; <=1 disables automatic compaction. Set before first
	// Commit.
	CompactThreshold float64
	// compactFloor avoids churning tiny ledgers: no automatic compaction
	// below this many total records.
	compactFloor int
}

// Open replays the ledger directory (creating it if absent), verifies
// the salt fingerprint, and starts a fresh active segment. saltFP is an
// opaque owner identifier — callers derive it from the salt (never the
// salt itself); an existing ledger written under a different fingerprint
// fails with ErrSaltMismatch.
func Open(dir, saltFP string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	l := &Ledger{
		dir:              dir,
		saltFP:           saltFP,
		CompactThreshold: 3,
		compactFloor:     1024,
	}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		n, err := l.replaySegment(seg)
		if err != nil {
			return nil, err
		}
		l.diskRecs += n
	}
	l.seen = l.state.index()
	l.seg = 1
	if n := len(segs); n > 0 {
		last, perr := segIndex(segs[n-1])
		if perr != nil {
			return nil, perr
		}
		l.seg = last + 1
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// segments lists the ledger's segment files in replay order.
func (l *Ledger) segments() ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, err := segIndex(e.Name()); err == nil {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// segIndex parses a segment file name ("seg-000042.jsonl" → 42).
func segIndex(name string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%06d.jsonl", &n); err != nil {
		return 0, err
	}
	if fmt.Sprintf("seg-%06d.jsonl", n) != name {
		return 0, fmt.Errorf("store: not a segment name: %q", name)
	}
	return n, nil
}

func (l *Ledger) segPath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%06d.jsonl", n))
}

// committedPrefix returns data up to the end of its last line that
// decodes as a commit record, or nil when no line does. Replay applies
// only that prefix: what follows is the uncommitted tail of a crash,
// possibly a torn line, and is discarded silently. Finding the last
// commit first, from the end, lets replay decode and apply the prefix
// in one forward pass.
func committedPrefix(data []byte) []byte {
	for end := len(data); end > 0; {
		start := bytes.LastIndexByte(data[:end], '\n') + 1
		if start < end {
			var rec Record
			if err := decodeLine(data[start:end], &rec); err == nil && rec.T == TCommit {
				return data[:end]
			}
		}
		end = start - 1
	}
	return nil
}

// nextLine splits the first non-empty line off data; line is nil when
// none is left.
func nextLine(data []byte) (line, rest []byte) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		switch {
		case i < 0:
			return data, nil
		case i > 0:
			return data[:i], data[i+1:]
		}
		data = data[1:]
	}
	return nil, nil
}

// checkHeader verifies a segment's open header against the ledger.
func (l *Ledger) checkHeader(name string, rec Record) error {
	if rec.Schema != Schema {
		return fmt.Errorf("%w (%s carries %q)", ErrSchema, name, rec.Schema)
	}
	if rec.SaltFP != l.saltFP {
		return fmt.Errorf("%w (%s)", ErrSaltMismatch, name)
	}
	return nil
}

// replaySegment adds one segment's committed records to the state,
// duplicates and all (Open indexes the state once every segment is in).
// Returns the number of committed data records added. A record inside
// the committed prefix that fails to decode is ErrCorrupt. Nothing keeps
// the segment's bytes once it returns: string values are copied out.
func (l *Ledger) replaySegment(name string) (int, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", name, err)
	}
	var rec Record
	committed := committedPrefix(data)
	if committed == nil {
		// A segment with no commit contributes nothing — but its header,
		// if readable, must still agree on schema and salt.
		if first, _ := nextLine(data); first != nil {
			if err := decodeLine(first, &rec); err == nil && rec.T == TOpen {
				return 0, l.checkHeader(name, rec)
			}
		}
		return 0, nil
	}
	added := 0
	for n := 1; ; n++ {
		var line []byte
		if line, committed = nextLine(committed); line == nil {
			return added, nil
		}
		if err := decodeLine(line, &rec); err != nil {
			return 0, fmt.Errorf("%w (%s line %d: %v)", ErrCorrupt, name, n, err)
		}
		switch rec.T {
		case TOpen:
			if err := l.checkHeader(name, rec); err != nil {
				return 0, err
			}
		case TCommit:
			// Durability marker; nothing to apply.
		default:
			l.state.add(&rec)
			added++
		}
	}
}

// openSegment starts the active segment with its open header (buffered;
// the header becomes durable with the first commit).
func (l *Ledger) openSegment() error {
	f, err := os.OpenFile(l.segPath(l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segRecs = 0
	line, err := encodeLine(Record{T: TOpen, Schema: Schema, SaltFP: l.saltFP, Seg: l.seg})
	if err != nil {
		return err
	}
	_, err = l.w.Write(line)
	return err
}

// stateLen counts the live state's data records.
func (l *Ledger) stateLen() int {
	s := &l.state
	return len(s.IPs) + len(s.ASNs) + len(s.Words) + len(s.OrigIPs) +
		len(s.Sensitive) + len(s.Relations)
}

// State returns a copy of the committed state (replayed at Open plus
// every Commit since). Committed returns the same state without copying
// it.
func (l *Ledger) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return State{
		IPs:       append([]Pair(nil), l.state.IPs...),
		ASNs:      append([]string(nil), l.state.ASNs...),
		Words:     append([]string(nil), l.state.Words...),
		OrigIPs:   append([]uint32(nil), l.state.OrigIPs...),
		Sensitive: append([]string(nil), l.state.Sensitive...),
		Relations: append([]Relation(nil), l.state.Relations...),
	}
}

// Committed returns the committed state without copying it, for a
// caller that only reads it (a Session restoring from the ledger). Each
// list is clipped to its length: a later Commit only appends, in place
// past that length or into a new array, so what the caller holds never
// changes. The caller must not modify the lists.
func (l *Ledger) Committed() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.state
	return State{
		IPs:       s.IPs[:len(s.IPs):len(s.IPs)],
		ASNs:      s.ASNs[:len(s.ASNs):len(s.ASNs)],
		Words:     s.Words[:len(s.Words):len(s.Words)],
		OrigIPs:   s.OrigIPs[:len(s.OrigIPs):len(s.OrigIPs)],
		Sensitive: s.Sensitive[:len(s.Sensitive):len(s.Sensitive)],
		Relations: s.Relations[:len(s.Relations):len(s.Relations)],
	}
}

// SaltFP returns the owner fingerprint the ledger was opened with.
func (l *Ledger) SaltFP() string { return l.saltFP }

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.dir }

// Append buffers records onto the active segment. Nothing is durable —
// or visible to State — until Commit.
func (l *Ledger) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	for _, r := range recs {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		if _, err := l.w.Write(line); err != nil {
			return err
		}
		l.segRecs++
	}
	l.pending = append(l.pending, recs...)
	fireCrashHook("append")
	return nil
}

// Commit makes every buffered record durable: it writes a commit
// record, flushes, and fsyncs the segment. On success the records are
// folded into State. Commit with nothing pending is a no-op (no fsync).
func (l *Ledger) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	if len(l.pending) == 0 {
		return nil
	}
	fireCrashHook("commit")
	line, err := encodeLine(Record{T: TCommit, N: l.segRecs})
	if err != nil {
		return err
	}
	if _, err := l.w.Write(line); err != nil {
		return err
	}
	// Flush and fsync are retried as one unit: a re-run flush after a
	// partial failure is a cheap no-op, and the pair succeeding is what
	// "committed" means.
	if err := ioRetry.Do(context.Background(), func() error {
		if err := l.w.Flush(); err != nil {
			return err
		}
		return l.f.Sync()
	}); err != nil {
		return err
	}
	fireCrashHook("committed")
	for i := range l.pending {
		l.state.apply(&l.pending[i], l.seen)
	}
	l.pending = l.pending[:0]
	if l.shouldCompact() {
		return l.compactLocked()
	}
	return nil
}

// shouldCompact reports whether replay dead weight warrants compaction:
// the on-disk data record count (replayed total plus the active
// segment's counter) exceeds CompactThreshold times the live state,
// above the churn floor. Called with mu held.
func (l *Ledger) shouldCompact() bool {
	if l.CompactThreshold <= 1 {
		return false
	}
	live := l.stateLen()
	onDisk := l.diskRecs + l.segRecs
	return onDisk >= l.compactFloor && float64(onDisk) > l.CompactThreshold*float64(live)
}

// Compact rewrites the ledger as one fresh committed snapshot segment
// and removes the older segments. Uncommitted appends survive: they are
// re-buffered onto the new active segment (still uncommitted).
func (l *Ledger) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	return l.compactLocked()
}

// compactLocked does the work of Compact with mu held.
func (l *Ledger) compactLocked() error {
	pending := append([]Record(nil), l.pending...)
	// Close the current active segment; its committed content is about
	// to be superseded, and its uncommitted tail is re-buffered below.
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	old, err := l.segments()
	if err != nil {
		return err
	}
	// Write the snapshot as the next segment and make it durable before
	// any old segment is touched. A crash before the removals leaves old
	// + snapshot, which replays to the identical state (idempotent
	// records); a crash before the snapshot's commit record leaves the
	// snapshot uncommitted and therefore ignored.
	l.seg++
	if err := l.openSegment(); err != nil {
		return err
	}
	snap := l.state.records()
	for _, r := range snap {
		line, lerr := encodeLine(r)
		if lerr != nil {
			return lerr
		}
		if _, werr := l.w.Write(line); werr != nil {
			return werr
		}
		l.segRecs++
	}
	line, err := encodeLine(Record{T: TCommit, N: l.segRecs})
	if err != nil {
		return err
	}
	if _, err := l.w.Write(line); err != nil {
		return err
	}
	if err := ioRetry.Do(context.Background(), func() error {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		return syncDir(l.dir)
	}); err != nil {
		return err
	}
	for _, name := range old {
		path := filepath.Join(l.dir, name)
		if err := ioRetry.Do(context.Background(), func() error { return os.Remove(path) }); err != nil {
			return err
		}
	}
	l.diskRecs = l.segRecs
	l.segRecs = 0
	// Re-buffer the uncommitted tail onto the snapshot segment.
	l.pending = l.pending[:0]
	for _, r := range pending {
		eline, lerr := encodeLine(r)
		if lerr != nil {
			return lerr
		}
		if _, werr := l.w.Write(eline); werr != nil {
			return werr
		}
		l.segRecs++
	}
	l.pending = append(l.pending, pending...)
	return nil
}

// Segments reports how many segment files the ledger currently spans
// (for tests and operational introspection).
func (l *Ledger) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return 0
	}
	return len(segs)
}

// Close flushes and closes the active segment. Uncommitted records are
// NOT committed — they are the crash window by design; call Commit
// first if they must survive.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// WriteFileAtomic writes data to path through an fsynced temp file in
// path's directory, renamed over path, and then fsyncs the directory so
// the rename itself survives a power failure. A crash or a failed write
// never leaves a truncated or interleaved file: the previous version
// stays intact. Transient failures are retried under the shared policy.
// It writes every state artifact a later run depends on: -mapping
// snapshots, the incremental cache, the portal's job records.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return retry.Do(func() error {
		tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
		if err != nil {
			return err
		}
		tmpName := tmp.Name()
		defer os.Remove(tmpName) // no-op once renamed
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Chmod(perm); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmpName, path); err != nil {
			return err
		}
		return syncDir(filepath.Dir(path))
	})
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable (best-effort on platforms where directories reject Sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// EncodeState renders a State as a self-contained, single-segment ledger
// blob (open header, records, one commit) — the versioned snapshot
// format behind Session.SaveMapping. DecodeState reads it back; the two
// round-trip byte-exactly through the same codec the on-disk segments
// use.
func EncodeState(s *State, saltFP string) ([]byte, error) {
	var buf []byte
	write := func(r Record) error {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		return nil
	}
	if err := write(Record{T: TOpen, Schema: Schema, SaltFP: saltFP, Seg: 1}); err != nil {
		return nil, err
	}
	recs := s.records()
	for _, r := range recs {
		if err := write(r); err != nil {
			return nil, err
		}
	}
	if err := write(Record{T: TCommit, N: len(recs)}); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeState parses an EncodeState blob, returning the state and the
// salt fingerprint it was written under. The same commit-gating as
// segment replay applies: a blob without a valid commit is empty, and
// corruption before the commit is an error.
func DecodeState(blob []byte) (State, string, error) {
	first, _ := nextLine(blob)
	if first == nil {
		return State{}, "", ErrSchema
	}
	var rec Record
	committed := committedPrefix(blob)
	if committed == nil {
		// No commit: accept only a bare valid header (empty state).
		if err := decodeLine(first, &rec); err != nil || rec.T != TOpen || rec.Schema != Schema {
			return State{}, "", ErrSchema
		}
		return State{}, rec.SaltFP, nil
	}
	var (
		st     State
		saltFP string
	)
	for n := 1; ; n++ {
		var line []byte
		if line, committed = nextLine(committed); line == nil {
			st.index()
			return st, saltFP, nil
		}
		if err := decodeLine(line, &rec); err != nil {
			return State{}, "", fmt.Errorf("%w (line %d: %v)", ErrCorrupt, n, err)
		}
		switch rec.T {
		case TOpen:
			if rec.Schema != Schema {
				return State{}, "", ErrSchema
			}
			saltFP = rec.SaltFP
		case TCommit:
		default:
			st.add(&rec)
		}
	}
}
