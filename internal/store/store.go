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
// Open replays every segment, reading each forward once. Records after
// the last valid commit — including a torn final line from a crash
// mid-write — are discarded silently (that is the designed crash
// window). A record that fails its CRC or does not parse *before* a
// later valid commit is corruption of durable data and fails Open with
// ErrCorrupt, naming the first such line: the ledger never guesses at
// committed state. The snapshot blobs of EncodeState go through the same
// replay (DecodeState), with their own header policy.
//
// Replay is every -state-dir run's fixed cost, so it does each piece of
// work once. A segment is read line by line through one buffer, never
// whole. A line in the form encodeLine writes is parsed byte by byte
// (the ip and oip records, nearly all of a ledger, as whole forms), any
// other line through encoding/json, both into one reused Record; the CRC
// is checked either way. Each record is appended to the state's lists as
// it arrives; each commit notes the lists' lengths, and at the end of a
// segment the lists are cut back to them, which drops the uncommitted
// tail. Once every segment is in, one pass drops the values an earlier
// record already gave (first sight wins) and builds the dedup sets at
// their final size. Committed hands the replayed state to a reader
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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"confanon/internal/retry"
)

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
func (s *State) Empty() bool { return s.lens() == lens{} }

// lens is the lengths of a State's six lists, in field order.
type lens [6]int

func (s *State) lens() lens {
	return lens{len(s.IPs), len(s.ASNs), len(s.Words), len(s.OrigIPs), len(s.Sensitive), len(s.Relations)}
}

func (n lens) sum() int { return n[0] + n[1] + n[2] + n[3] + n[4] + n[5] }

// truncate cuts each list back to its length in n: to nil at zero, as a
// list that never held a record is.
func (s *State) truncate(n lens) {
	s.IPs = clip(s.IPs, n[0])
	s.ASNs = clip(s.ASNs, n[1])
	s.Words = clip(s.Words, n[2])
	s.OrigIPs = clip(s.OrigIPs, n[3])
	s.Sensitive = clip(s.Sensitive, n[4])
	s.Relations = clip(s.Relations, n[5])
}

func clip[T any](list []T, n int) []T {
	if n == 0 {
		return nil
	}
	return list[:n]
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
		dir:          dir,
		saltFP:       saltFP,
		compactFloor: 1024,
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
	// The header is buffered: it becomes durable with the first commit.
	if err := writeRecords(l.w, Record{T: TOpen, Schema: Schema, SaltFP: saltFP, Seg: l.seg}); err != nil {
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

// checkHeader verifies a segment's open header against the ledger.
func (l *Ledger) checkHeader(name string, rec *Record) error {
	if rec.Schema != Schema {
		return fmt.Errorf("%w (%s carries %q)", ErrSchema, name, rec.Schema)
	}
	if rec.SaltFP != l.saltFP {
		return fmt.Errorf("%w (%s)", ErrSaltMismatch, name)
	}
	return nil
}

// replaySegment adds one segment's committed records to the state,
// duplicates and all (Open indexes the state once every segment is in),
// and returns how many it added.
func (l *Ledger) replaySegment(name string) (int, error) {
	f, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", name, err)
	}
	defer f.Close()
	return replay(f, name, &l.state, func(_ int, rec *Record) error { return l.checkHeader(name, rec) })
}

// replayBufSize is replay's read buffer: the usual line is under 100
// bytes, and a longer one is gathered across reads.
const replayBufSize = 64 << 10

// replay reads one ledger stream — a segment file or a snapshot blob,
// named where in errors — forward, adding each data record to s as it
// arrives, duplicates and all, and returns how many committed records it
// added. At each valid commit it notes the lengths of s's lists; at EOF
// it truncates them back to the last noted lengths, which drops the
// uncommitted tail (a torn final line included) silently.
//
// A line that does not decode is corruption only if a later valid commit
// proves it committed: replay then fails with ErrCorrupt naming the
// first such line (non-empty lines counted from 1). header sees every
// open record with its line number; its error is returned at once for
// line 1 (a stream's header names its schema and owner, committed or
// not) and treated like an undecodable line elsewhere.
func replay(r io.Reader, where string, s *State, header func(n int, rec *Record) error) (int, error) {
	br := bufio.NewReaderSize(r, replayBufSize)
	var (
		rec   Record
		long  []byte // a line longer than br's buffer, gathered
		bad   error  // the first bad line, reported at the next commit
		start = s.lens()
		mark  = start
	)
	for n := 0; ; {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("store: reading %s: %w", where, err)
		}
		if line = bytes.TrimSuffix(line, []byte{'\n'}); len(line) > 0 {
			n++
			derr := decodeLine(line, &rec)
			if derr != nil {
				derr = fmt.Errorf("%w (%s line %d: %v)", ErrCorrupt, where, n, derr)
			} else if rec.T == TOpen {
				if derr = header(n, &rec); derr != nil && n == 1 {
					return 0, derr
				}
			}
			switch {
			case derr != nil:
				if bad == nil {
					bad = derr
				}
			case rec.T == TCommit:
				if bad != nil {
					return 0, bad
				}
				mark = s.lens()
			case rec.T != TOpen:
				s.add(&rec)
			}
		}
		if err == io.EOF {
			s.truncate(mark)
			return mark.sum() - start.sum(), nil
		}
	}
}

// openSegment creates segment l.seg as the active segment, empty.
func (l *Ledger) openSegment() error {
	f, err := os.OpenFile(l.segPath(l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segRecs = 0
	return nil
}

// writeRecords encodes recs onto w, one line each.
func writeRecords(w io.Writer, recs ...Record) error {
	for _, r := range recs {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot writes s as one self-contained committed segment — its
// open header, every record of s (IP pairs first, in insertion order),
// and a commit covering them — and returns the number of data records.
// Compaction and EncodeState both write it.
func writeSnapshot(w io.Writer, s *State, saltFP string, seg int) (int, error) {
	recs := s.records()
	if err := writeRecords(w, Record{T: TOpen, Schema: Schema, SaltFP: saltFP, Seg: seg}); err != nil {
		return 0, err
	}
	if err := writeRecords(w, recs...); err != nil {
		return 0, err
	}
	return len(recs), writeRecords(w, Record{T: TCommit, N: len(recs)})
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
	if err := writeRecords(l.w, recs...); err != nil {
		return err
	}
	l.segRecs += len(recs)
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
	if err := writeRecords(l.w, Record{T: TCommit, N: l.segRecs}); err != nil {
		return err
	}
	// Flush and fsync are retried as one unit: a re-run flush after a
	// partial failure is a cheap no-op, and the pair succeeding is what
	// "committed" means.
	if err := retry.Do(func() error {
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
// segment's counter) exceeds compactThreshold times the live state,
// above the churn floor. Called with mu held.
func (l *Ledger) shouldCompact() bool {
	onDisk := l.diskRecs + l.segRecs
	return onDisk >= l.compactFloor && onDisk > compactThreshold*l.state.lens().sum()
}

// compactThreshold is the dead-weight ratio (data records on disk across
// segments vs live state records) beyond which Commit compacts.
const compactThreshold = 3

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
	n, err := writeSnapshot(l.w, &l.state, l.saltFP, l.seg)
	if err != nil {
		return err
	}
	if err := retry.Do(func() error {
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
		if err := retry.Do(func() error { return os.Remove(path) }); err != nil {
			return err
		}
	}
	l.diskRecs = n
	// Re-buffer the uncommitted tail onto the snapshot segment.
	if err := writeRecords(l.w, l.pending...); err != nil {
		return err
	}
	l.segRecs = len(l.pending)
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
// format behind Session.SaveMapping, written as compaction writes a
// snapshot segment. DecodeState reads it back; the two round-trip
// byte-exactly through the same codec the on-disk segments use.
func EncodeState(s *State, saltFP string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := writeSnapshot(&buf, s, saltFP, 1); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeState parses an EncodeState blob, returning the state and the
// salt fingerprint it was written under. It replays the blob as Open
// replays a segment — a blob without a valid commit is empty, and
// corruption before a commit is ErrCorrupt — but the header policy is
// the blob's own: a blob whose first line is not an open header of
// this schema, or that commits an open header of another, is ErrSchema.
func DecodeState(blob []byte) (State, string, error) {
	var (
		st     State
		saltFP string
		headed bool
	)
	_, err := replay(bytes.NewReader(blob), "snapshot", &st, func(n int, rec *Record) error {
		if rec.Schema != Schema {
			return ErrSchema
		}
		if n == 1 {
			saltFP, headed = rec.SaltFP, true
		}
		return nil
	})
	if err != nil {
		return State{}, "", err
	}
	if !headed {
		return State{}, "", ErrSchema
	}
	st.index()
	return st, saltFP, nil
}
