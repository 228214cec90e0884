package anonymizer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"confanon/internal/config"
	"confanon/internal/ipanon"
	"confanon/internal/metrics"
	"confanon/internal/store"
	"confanon/internal/trace"
)

// Session is the mutable per-owner half of the anonymizer: the IP
// mapping, the leak recorder, the operator-added sensitive tokens, the
// declared relations, and the merged statistics. One Session = one owner
// salt = one consistent mapping; a Session is safe for concurrent use by
// any number of workers (Acquire/Release), which is what the parallel
// corpus mode and the portal's concurrent uploads build on.
//
// Workers keep their hot-path state (statistics, recorder entries)
// private and commit it into the Session once per file, so the
// per-token cost of sharing is zero; the shared IP mapper is internally
// concurrency-safe (one short lock per lookup).
type Session struct {
	prog *Program

	// ipMu guards replacement of the mapper (LoadMapping); the mapper
	// itself is safe for concurrent use.
	ipMu sync.RWMutex
	ip   ipanon.Mapper

	// stats is the merged record of every completed file, and the only
	// one: a wired registry reads it at scrape time (SetMetrics). Workers
	// add each committed file's Stats with atomic adds, so reads must go
	// through Stats().
	stats Stats

	// The leak recorder: every public ASN, hashed word, and mapped
	// original address any worker saw. Workers batch their entries and
	// publish them here at file boundaries under recMu.
	recMu     sync.RWMutex
	seenASNs  map[string]bool
	seenWords map[string]bool
	seenIPs   map[uint32]bool

	// sensTok is the operator-added sensitive-token set, copy-on-write so
	// workers read it without locking.
	sensTok atomic.Pointer[map[string]bool]

	relMu     sync.Mutex
	relations []Relation

	// ipOuts caches the mapping's output set for the leak report's
	// false-positive classification; ipOutsLen tracks staleness.
	outsMu    sync.Mutex
	ipOuts    map[uint32]bool
	ipOutsLen int

	// reg is the registry workers push their events into (SetMetrics).
	reg *metrics.Registry

	// tracer is the span/ledger recorder every worker of this Session
	// writes into (copied from Options.Tracer at NewSession; nil =
	// untraced). A census (template.go) buffers its file's decisions
	// through it for the fill to publish, and never opens a span.
	tracer *trace.Tracer

	// The durable mapping ledger (SetLedger). ledgerOn is the hot-path
	// gate (one atomic load per recorder flush when detached); ledMu
	// guards the sink, the pending record log, the persisted-pair
	// baseline, and the sticky first error. Commits happen at the same
	// clean-file-boundary points the provenance ledger publishes at
	// (fault.go), so a mid-file crash persists nothing partial.
	ledgerOn  atomic.Bool
	ledMu     sync.Mutex
	ledger    LedgerSink
	ledIPBase int
	recLog    []store.Record
	ledErr    error

	// pool holds the workers Acquire hands out; census holds the
	// workers Census runs on, which map through a recording trace and
	// commit nothing.
	pool, census sync.Pool

	// deltas are the recorder's tracked deltas (TrackRecorder), guarded
	// by recMu.
	deltas []*RecorderDelta
}

// LedgerSink is the durable-store surface the Session commits into:
// Append buffers records, Commit makes everything appended since the
// last Commit durable atomically. *store.Ledger satisfies it.
type LedgerSink interface {
	Append(recs ...store.Record) error
	Commit() error
}

// NewSession creates a Session with a fresh IP mapping (shaped tree, or
// Crypto-PAn under StatelessIP).
func (p *Program) NewSession() *Session { return p.newSession(p.newMapper(0)) }

// newMapper returns an empty IP mapper of the Program's scheme, sized
// for n addresses.
func (p *Program) newMapper(n int) ipanon.Mapper {
	if p.opts.StatelessIP {
		m := ipanon.NewCryptoMapper(p.opts.Salt)
		m.Reserve(n)
		return m
	}
	t := ipanon.NewTree(ipanon.DefaultOptions(p.opts.Salt))
	t.Reserve(n)
	return t
}

func (p *Program) newSession(mapper ipanon.Mapper) *Session {
	s := &Session{
		prog:      p,
		stats:     Stats{rules: p.rules},
		ip:        mapper,
		seenASNs:  make(map[string]bool),
		seenWords: make(map[string]bool),
		seenIPs:   make(map[uint32]bool),
	}
	empty := make(map[string]bool)
	s.sensTok.Store(&empty)
	s.tracer = p.opts.Tracer
	return s
}

// Program returns the compiled half this Session runs.
func (s *Session) Program() *Program { return s.prog }

// mapper returns the current IP mapper.
func (s *Session) mapper() ipanon.Mapper {
	s.ipMu.RLock()
	defer s.ipMu.RUnlock()
	return s.ip
}

// Acquire returns a worker bound to this Session, creating one if the
// pool is empty. Workers are single-goroutine engines; acquire one per
// goroutine and Release it when done.
func (s *Session) Acquire() *Anonymizer {
	a, _ := s.pool.Get().(*Anonymizer)
	if a == nil {
		a = s.newWorker()
	}
	// Refresh the shared-state snapshots: the mapper (LoadMapping may
	// have replaced it) and the sensitive-token set.
	a.ip = s.mapper()
	a.sensitiveTokens = *s.sensTok.Load()
	return a
}

// Release returns the worker to the pool. A worker holds nothing
// uncommitted between files, so there is nothing to flush.
func (s *Session) Release(a *Anonymizer) { s.pool.Put(a) }

func (s *Session) newWorker() *Anonymizer {
	a := &Anonymizer{
		prog:            s.prog,
		sess:            s,
		opts:            s.prog.opts,
		pass:            s.prog.pass,
		perms:           s.prog.perms,
		rules:           s.prog.rules,
		ip:              s.mapper(),
		seenASNs:        make(map[string]bool),
		seenWords:       make(map[string]bool),
		seenIPs:         make(map[uint32]bool),
		sensitiveTokens: *s.sensTok.Load(),
		tracer:          s.tracer,
	}
	if s.reg != nil {
		a.metrics = newEngineMetrics(s.reg)
	}
	return a
}

// Stats returns a consistent snapshot of the merged statistics.
func (s *Session) Stats() Stats { return s.stats.snapshotAtomic() }

// AddSensitiveToken registers an operator-supplied rule for every worker
// of this Session (copy-on-write: in-flight workers pick it up on their
// next Acquire). A genuinely new token is also appended to the attached
// mapping ledger (committed at the next clean file boundary).
func (s *Session) AddSensitiveToken(tok string) {
	for {
		old := s.sensTok.Load()
		if (*old)[tok] {
			return
		}
		next := make(map[string]bool, len(*old)+1)
		for k := range *old {
			next[k] = true
		}
		next[tok] = true
		if s.sensTok.CompareAndSwap(old, &next) {
			s.appendLedgerRecords([]store.Record{{T: store.TSensitive, V: tok}})
			return
		}
	}
}

// SensitiveTokens returns the operator-added sensitive tokens, sorted
// (the incremental cache fingerprints them: a token added between runs
// changes what every file's output would be, so cached lines from before
// the addition must not be reused).
func (s *Session) SensitiveTokens() []string {
	m := *s.sensTok.Load()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeclareRelation registers well-known external knowledge (§5) and pins
// the prefix into the shared mapping immediately, so shaping is
// independent of where it later appears in the files.
func (s *Session) DeclareRelation(rel Relation) {
	s.relMu.Lock()
	s.relations = append(s.relations, rel)
	s.relMu.Unlock()
	s.appendLedgerRecords([]store.Record{{T: store.TRelation, ASN: rel.ASN, Prefix: rel.Prefix, Len: rel.Len}})
	s.mapper().MapPrefix(rel.Prefix&config.LenToMask(rel.Len), rel.Len)
}

// Relations returns the anonymized images of every declared relation.
func (s *Session) Relations() []MappedRelation {
	s.relMu.Lock()
	rels := append([]Relation(nil), s.relations...)
	s.relMu.Unlock()
	ip := s.mapper()
	out := make([]MappedRelation, 0, len(rels))
	for _, rel := range rels {
		out = append(out, MappedRelation{
			ASN:    s.prog.perms.ASN.Map(rel.ASN),
			Prefix: ip.MapPrefix(rel.Prefix&config.LenToMask(rel.Len), rel.Len),
			Len:    rel.Len,
		})
	}
	return out
}

// saltFP returns the owner fingerprint every persistence artifact of
// this Session is keyed by.
func (s *Session) saltFP() string { return store.SaltFingerprint(s.prog.opts.Salt) }

// CaptureState snapshots every piece of mutable Session state the
// durable store persists: the IP mapping in insertion order, the leak
// recorder (sorted, for deterministic snapshots), the operator-added
// sensitive tokens, and the declared relations.
func (s *Session) CaptureState() store.State {
	var st store.State
	for _, p := range s.mapper().Since(0) {
		st.IPs = append(st.IPs, store.Pair{In: p.In, Out: p.Out})
	}
	s.recMu.RLock()
	for k := range s.seenASNs {
		st.ASNs = append(st.ASNs, k)
	}
	for k := range s.seenWords {
		st.Words = append(st.Words, k)
	}
	for k := range s.seenIPs {
		st.OrigIPs = append(st.OrigIPs, k)
	}
	s.recMu.RUnlock()
	sort.Strings(st.ASNs)
	sort.Strings(st.Words)
	sort.Slice(st.OrigIPs, func(i, j int) bool { return st.OrigIPs[i] < st.OrigIPs[j] })
	for k := range *s.sensTok.Load() {
		st.Sensitive = append(st.Sensitive, k)
	}
	sort.Strings(st.Sensitive)
	s.relMu.Lock()
	for _, rel := range s.relations {
		st.Relations = append(st.Relations, store.Relation{ASN: rel.ASN, Prefix: rel.Prefix, Len: rel.Len})
	}
	s.relMu.Unlock()
	return st
}

// ErrRestoreNotEmpty reports a restore into a Session whose IP mapping
// already holds pairs. The shaped mapping depends on insertion order, so
// a second source cannot be merged into it: a later pair would shape
// differently than in the run that recorded it. Restore once, before any
// anonymization.
var ErrRestoreNotEmpty = errors.New("anonymizer: restore into a session whose IP mapping is not empty")

// RestoreState reinstates a captured state: the IP pairs replay through
// a fresh mapper, sized once for them, in insertion order, verified pair
// by pair against this Session's salt (a snapshot taken under a
// different salt fails, never silently diverges); recorder entries,
// sensitive tokens, and relations merge in. Call before any
// anonymization: a Session whose mapping already holds pairs fails with
// ErrRestoreNotEmpty and is left unchanged. st is only read.
func (s *Session) RestoreState(st store.State) error {
	if n := s.mapper().Len(); n > 0 {
		return fmt.Errorf("%w (it maps %d addresses)", ErrRestoreNotEmpty, n)
	}
	mapper := s.prog.newMapper(len(st.IPs))
	for _, p := range st.IPs {
		if got := mapper.MapV4(p.In); got != p.Out {
			return fmt.Errorf("anonymizer: state replay mismatch for %08x: got %08x want %08x (wrong salt?)",
				p.In, got, p.Out)
		}
	}
	s.ipMu.Lock()
	if n := s.ip.Len(); n > 0 {
		s.ipMu.Unlock()
		return fmt.Errorf("%w (it maps %d addresses)", ErrRestoreNotEmpty, n)
	}
	s.ip = mapper
	s.ipMu.Unlock()
	s.recMu.Lock()
	s.seenASNs = mergeSet(s.seenASNs, st.ASNs)
	s.seenWords = mergeSet(s.seenWords, st.Words)
	s.seenIPs = mergeSet(s.seenIPs, st.OrigIPs)
	s.recMu.Unlock()
	if len(st.Sensitive) > 0 {
		old := s.sensTok.Load()
		next := make(map[string]bool, len(*old)+len(st.Sensitive))
		for k := range *old {
			next[k] = true
		}
		for _, k := range st.Sensitive {
			next[k] = true
		}
		s.sensTok.Store(&next)
	}
	if len(st.Relations) > 0 {
		s.relMu.Lock()
		for _, r := range st.Relations {
			s.relations = append(s.relations, Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
		}
		s.relMu.Unlock()
	}
	return nil
}

// mergeSet adds keys to set. An empty set is replaced by one sized for
// keys, so a restore into a fresh Session builds each recorder set once.
func mergeSet[K comparable](set map[K]bool, keys []K) map[K]bool {
	if len(set) == 0 && len(keys) > 0 {
		set = make(map[K]bool, len(keys))
	}
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// SaveMapping serializes the complete mutable Session state — the IP
// mapping in insertion order, the leak-recorder maps, the sensitive
// tokens, the declared relations — as a versioned confanon.mapping/v1
// blob. An empty session snapshots nil.
func (s *Session) SaveMapping() []byte {
	st := s.CaptureState()
	if st.Empty() {
		return nil
	}
	blob, err := store.EncodeState(&st, s.saltFP())
	if err != nil {
		// Marshal of plain structs cannot fail; keep the historical
		// no-error signature.
		return nil
	}
	return blob
}

// LoadMapping restores a SaveMapping snapshot (a confanon.mapping/v1
// state capture). Call before any anonymization, with the same salt: the
// replayed pairs are verified against this Session's mapping, so a
// wrong-salt snapshot is rejected, not silently diverged from. Any other
// format — including the tree-only "ipa1" blobs of early releases — is
// rejected with store.ErrSchema.
func (s *Session) LoadMapping(snapshot []byte) error {
	if len(snapshot) == 0 {
		return nil
	}
	st, fp, err := store.DecodeState(snapshot)
	if err != nil {
		return err
	}
	if fp != "" && fp != s.saltFP() {
		return fmt.Errorf("anonymizer: %w", store.ErrSaltMismatch)
	}
	return s.RestoreState(st)
}

// SetLedger attaches a durable mapping ledger: from now on every clean
// file boundary commits the state delta since the last commit — newly
// resolved IP pairs, new leak-recorder entries, new sensitive tokens and
// relations. State the mapper resolved before attachment is assumed
// already persisted (the usual flow restores the ledger's replayed state
// first, then attaches). nil detaches.
func (s *Session) SetLedger(l LedgerSink) {
	s.ledMu.Lock()
	s.ledger = l
	s.ledIPBase = s.mapper().Len()
	s.recLog = nil
	s.ledErr = nil
	s.ledMu.Unlock()
	s.ledgerOn.Store(l != nil)
}

// LedgerErr reports the first error the attached ledger returned (nil
// when healthy). Ledger errors are sticky and stop further commits: the
// run's output is still correct, but its mappings are no longer durable,
// so batch callers surface this as a run-level failure.
func (s *Session) LedgerErr() error {
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	return s.ledErr
}

// appendLedgerRecords queues records for the next commit; a no-op when
// no ledger is attached.
func (s *Session) appendLedgerRecords(recs []store.Record) {
	if !s.ledgerOn.Load() || len(recs) == 0 {
		return
	}
	s.ledMu.Lock()
	if s.ledger != nil && s.ledErr == nil {
		s.recLog = append(s.recLog, recs...)
	}
	s.ledMu.Unlock()
}

// commitLedger persists the state delta since the last commit: the IP
// pairs the shared mapper resolved past the persisted baseline, plus the
// queued recorder/token/relation records. Called when a file commits
// (unit, fault.go) — the same point the provenance ledger publishes at
// — and never for a failed file, so a mid-file failure persists
// nothing. Note the delta is session-wide, not per-file: pairs
// resolved by a file that later aborts are live shared state (subsequent
// mappings depend on them), so they are swept into the next clean
// commit, which is exactly what replica consistency requires.
func (s *Session) commitLedger() {
	if !s.ledgerOn.Load() {
		return
	}
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	if s.ledger == nil || s.ledErr != nil {
		return
	}
	pairs := s.mapper().Since(s.ledIPBase)
	if len(pairs) == 0 && len(s.recLog) == 0 {
		return
	}
	recs := make([]store.Record, 0, len(pairs)+len(s.recLog))
	for _, p := range pairs {
		recs = append(recs, store.Record{T: store.TIP, In: p.In, Out: p.Out})
	}
	recs = append(recs, s.recLog...)
	if err := s.ledger.Append(recs...); err != nil {
		s.ledErr = err
		return
	}
	if err := s.ledger.Commit(); err != nil {
		s.ledErr = err
		return
	}
	s.ledIPBase += len(pairs)
	s.recLog = s.recLog[:0]
}

// SyncLedger commits any state delta not yet persisted (end-of-run
// flush; also the point batch callers check ledger health).
func (s *Session) SyncLedger() error {
	s.commitLedger()
	return s.LedgerErr()
}

// IPMapping exposes the resolved IP pairs (for validation tooling).
func (s *Session) IPMapping() []ipanon.Pair { return s.mapper().Mapping() }

// Replay feeds a census trace into the Session's shared mapper.
func (s *Session) Replay(tr *ipanon.Trace) { tr.Replay(s.mapper()) }

// CensusFile records one file's mapper-call traces in one engine pass
// (Census): full is the pass's call log, pins its prefix calls,
// shortest first, which a corpus run replays for every file before any
// file's log. A census that panics returns the failure as err, with
// full, and the pins taken from it, truncated where the file died: what
// a serial run maps before it fails the file.
func (s *Session) CensusFile(name, text string) (pins, full *ipanon.Trace, err *FileError) {
	t := s.Census(name, text)
	return t.Pins(), t.Calls(), t.err
}

// ipOutputs returns (cached) the set of addresses the shared mapping has
// produced so far, refreshed when the recorder has grown. seenLen is the
// caller's view of len(seenIPs) (callers hold recMu).
func (s *Session) ipOutputs(seenLen int) map[uint32]bool {
	s.outsMu.Lock()
	defer s.outsMu.Unlock()
	if s.ipOuts != nil && s.ipOutsLen == seenLen {
		return s.ipOuts
	}
	outs := make(map[uint32]bool)
	for _, p := range s.mapper().Mapping() {
		outs[p.Out] = true
	}
	s.ipOuts = outs
	s.ipOutsLen = seenLen
	return outs
}
