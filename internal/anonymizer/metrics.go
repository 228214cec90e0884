package anonymizer

import (
	"slices"
	"time"

	"confanon/internal/metrics"
	"confanon/internal/store"
	"confanon/internal/token"
)

// The metrics bridge. The engine keeps its counts in the plain Stats
// value (one non-atomic increment per event, unchanged hot path). A
// worker's Stats hold only the file in flight, and reach the Session
// once, when the file commits (unit, fault.go); a failed file's counts
// are dropped, never merged and taken back, so the Session's Stats
// describe only files that completed and only ever grow. That merged
// Stats is the only copy: a wired metrics.Registry reads it through a
// collector when it is scraped (Session.SetMetrics), so it equals what
// the batch API reports by construction and every counter it exposes
// is monotonic. The Program's own sources —
// the rewrite memo and the ASN permutation — are read the same way,
// once per Program (Program.collectInto).
//
// What a worker still pushes are events nothing else keeps: stage
// latencies, leak findings, and stream bytes.

// Pipeline stages observed into confanon_stage_seconds.
const (
	stagePrescan    = "prescan"
	stageRewrite    = "rewrite"
	stageLeakReport = "leakreport"
)

// engineMetrics holds one worker's handles for the events it pushes.
type engineMetrics struct {
	stageSeconds *metrics.HistogramVec
	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	leaks        *metrics.CounterVec
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		stageSeconds: reg.HistogramVec("confanon_stage_seconds", "per-file pipeline stage latency", nil, "stage"),
		bytesIn:      reg.Counter("confanon_stream_bytes_in_total", "bytes read by the streaming path"),
		bytesOut:     reg.Counter("confanon_stream_bytes_out_total", "bytes written by the streaming path"),
		leaks:        reg.CounterVec("confanon_leaks_total", "leak-report findings by token kind and severity", "kind", "severity"),
	}
}

// SetMetrics wires a shared registry into the Session (call once, before
// use): workers created afterwards push their events into it, and one
// collector exposes the Session's merged Stats and its IP mapping's size
// and remaps at every scrape. The registry holds the Session for its own
// lifetime.
func (s *Session) SetMetrics(reg *metrics.Registry) {
	s.reg = reg
	s.prog.collectInto(reg)
	scalars := make([]*metrics.Counter, len(statScalars))
	for i, sc := range statScalars {
		scalars[i] = reg.Counter(sc.name, sc.help)
	}
	hits := reg.CounterVec("confanon_rule_hits_total", "context-rule firings by registry rule", "rule")
	times := reg.CounterVec("confanon_rule_time_ns_total", "wall time attributed to each rule, nanoseconds", "rule")
	for _, info := range ruleInfos {
		hits.With(string(info.ID))
		times.With(string(info.ID))
	}
	entries := reg.Counter("confanon_ipmap_entries_total", "distinct addresses resolved by the IP mapping")
	remaps := reg.Counter("confanon_ipmap_remaps_total", "IP collision-chase steps (§4.3 special-range remapping)")
	reg.Collect(func(add func(*metrics.Counter, int64)) {
		st := s.Stats()
		for i, sc := range statScalars {
			add(scalars[i], *sc.field(&st))
		}
		// A pack rule's series appears the first time it fires.
		for i, info := range s.prog.rules.infos {
			if n := st.ruleHits[i]; n != 0 {
				add(hits.With(string(info.ID)), n)
			}
			if ns := st.ruleTimeNs[i]; ns != 0 {
				add(times.With(string(info.ID)), ns)
			}
		}
		ip := s.mapper()
		add(entries, int64(ip.Len()))
		add(remaps, ip.Remaps())
	})
}

// collectInto exposes the Program's shared sources — rewrite-memo hits
// and misses, ASN cycle walks — in reg, once however many of its
// Sessions are wired to reg.
func (p *Program) collectInto(reg *metrics.Registry) {
	p.metMu.Lock()
	defer p.metMu.Unlock()
	if slices.Contains(p.metRegs, reg) {
		return
	}
	p.metRegs = append(p.metRegs, reg)
	walks := reg.Counter("confanon_asn_cycle_walks_total", "ASN permutation cycle-walking steps (§4.4)")
	hits := reg.Counter("confanon_cregex_cache_hits_total", "regexp rewrites answered from the compiled Program's memo")
	misses := reg.Counter("confanon_cregex_cache_misses_total", "regexp rewrites computed and memoized by the compiled Program")
	reg.Collect(func(add func(*metrics.Counter, int64)) {
		add(walks, p.ASNCycleWalks())
		add(hits, p.CacheHits())
		add(misses, p.CacheMisses())
	})
}

// flushRecorder publishes the worker's pending leak-recorder entries
// into the Session recorder and clears the pending maps. Entries are
// only ever added, never retracted: an aborted file can widen later
// leak reports but never narrow them. Each genuinely new key (detected
// under recMu, so exactly one worker adds it) is queued for the next
// clean-boundary commit when a durable ledger is attached, and handed
// to every tracked RecorderDelta.
func (a *Anonymizer) flushRecorder() {
	if len(a.seenASNs) == 0 && len(a.seenWords) == 0 && len(a.seenIPs) == 0 {
		return
	}
	s := a.sess
	led := s.ledgerOn.Load()
	var recs []store.Record
	s.recMu.Lock()
	// A key is new when storing it grows the set: one map write per key.
	for k := range a.seenASNs {
		n := len(s.seenASNs)
		if s.seenASNs[k] = true; len(s.seenASNs) == n {
			continue
		}
		if led {
			recs = append(recs, store.Record{T: store.TASN, V: k})
		}
		s.noteDelta(k)
	}
	for k := range a.seenWords {
		n := len(s.seenWords)
		if s.seenWords[k] = true; len(s.seenWords) == n {
			continue
		}
		if led {
			recs = append(recs, store.Record{T: store.TWord, V: k})
		}
		s.noteDelta(k)
	}
	for k := range a.seenIPs {
		n := len(s.seenIPs)
		if s.seenIPs[k] = true; len(s.seenIPs) == n {
			continue
		}
		if led {
			recs = append(recs, store.Record{T: store.TOrigIP, In: k})
		}
		if len(s.deltas) > 0 {
			s.noteDelta(token.FormatIPv4(k))
		}
	}
	s.recMu.Unlock()
	s.appendLedgerRecords(recs)
	clear(a.seenASNs)
	clear(a.seenWords)
	clear(a.seenIPs)
}

// observeStage records one stage latency when a registry is wired, and
// the matching retroactive stage span when a tracer is. A census keeps
// it in the Template for the fill to observe.
func (a *Anonymizer) observeStage(stage string, d time.Duration) {
	if a.tmpl != nil {
		a.tmpl.stages = append(a.tmpl.stages, stageTime{stage, d})
		return
	}
	if a.metrics != nil {
		a.metrics.stageSeconds.With(stage).ObserveDuration(d)
	}
	if a.tracer != nil {
		a.traceStage(stage, d)
	}
}

// countLeaks tallies one leak report's findings by kind and severity.
// Cumulative across report runs: calling LeakReport twice on the same
// text counts its findings twice, mirroring the RuleLeakHighlight hit
// counter.
func (a *Anonymizer) countLeaks(leaks []Leak) {
	if a.metrics == nil {
		return
	}
	for _, l := range leaks {
		sev := "confirmed"
		if l.LikelyFalsePositive {
			sev = "likely_false_positive"
		}
		a.metrics.leaks.With(l.Kind, sev).Inc()
	}
}
