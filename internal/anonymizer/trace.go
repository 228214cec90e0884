package anonymizer

import (
	"strconv"
	"time"

	"confanon/internal/trace"
)

// The tracing bridge. It keeps the hot path untouched when unwired:
// every call site guards on the worker's tracer pointer, so a nil tracer
// costs one predictable branch per decision site and nothing else. When
// wired, the worker buffers its provenance decisions privately (pending)
// and publishes them when its file commits — together with the file's
// Stats, under the same contract (unit, fault.go): a file that fails
// mid-way drops its buffered decisions with its counts, so failed files
// leave no partial provenance records. The file's span is still
// published, marked failed; failures are traced, never dropped.
//
// Span nesting: batch layers open one corpus span and hand its ID to
// every worker they Acquire (SetCorpusSpan); the engine opens a file
// span per fail-closed unit, parents the retroactive stage spans under
// it (or under the corpus span when no file is open — fail-open calls,
// leak-report passes), and synthesizes per-rule spans under each
// rewrite stage from the file's own Stats.

// Pseudo-rule ids for ledger attribution of decisions no inventory rule
// dispatches: the §4.1 basic method (segmentation + pass-list + hash)
// and operator-added sensitive tokens. Deliberately not in the inventory
// — they have no hit counters, only ledger attribution.
const (
	pseudoRuleBasic    RuleID = "B0-basic-method"
	pseudoRuleOperator RuleID = "O0-operator-token"
)

// SetCorpusSpan parents this worker's subsequent file and stage spans
// under a batch-level corpus span (zero = root). The batch layer calls
// it after Acquire; single-file callers never need to.
func (a *Anonymizer) SetCorpusSpan(id trace.SpanID) { a.corpusSpan = id }

// decideAs buffers one provenance ledger entry with explicit rule
// attribution. Callers guard with a.tracer != nil; out must be the
// anonymized replacement (never the cleartext being replaced).
func (a *Anonymizer) decideAs(rule RuleID, class, out string) {
	var span trace.SpanID
	if a.fileSpan != nil {
		span = a.fileSpan.ID
	}
	a.pending = append(a.pending, trace.Decision{
		File:  a.curFile,
		Line:  a.curLine,
		Rule:  string(rule),
		Class: class,
		Out:   out,
		Span:  span,
	})
}

// decide buffers one ledger entry attributed to the last rule that
// fired on the current line (the dispatching rule at every call site
// that reaches a mapping helper), falling back to the basic-method
// pseudo-rule when no rule has fired yet.
func (a *Anonymizer) decide(class, out string) {
	rule := a.curRule
	if rule == "" {
		rule = pseudoRuleBasic
	}
	a.decideAs(rule, class, out)
}

// beginFileSpan opens the span covering one unit on one file. op names
// the operation ("prescan", "rewrite", "stream") — a file pinned with
// SafePrescan before its rewrite gets one span per unit; the fail-open
// entries pass "" and open none.
func (a *Anonymizer) beginFileSpan(name, op string) {
	if a.tracer == nil || op == "" {
		return
	}
	a.fileSpan = a.tracer.StartSpan(trace.KindFile, name, a.corpusSpan)
	a.fileSpan.SetAttr("op", op)
}

// endFileSpan ends a unit's tracing: on success (ferr nil) the file's
// buffered ledger entries are published and its span closes cleanly; on
// failure the entries are discarded and the span closes failed,
// annotated with the failing line and cause — a failed file's spans are
// marked, never dropped.
func (a *Anonymizer) endFileSpan(ferr *FileError) {
	if a.tracer == nil {
		return
	}
	if ferr == nil {
		a.tracer.Publish(a.pending)
	}
	a.pending = a.pending[:0]
	sp := a.fileSpan
	if sp == nil {
		return
	}
	a.fileSpan = nil
	if ferr == nil {
		a.tracer.End(sp, trace.StatusOK)
		return
	}
	sp.SetAttr("line", strconv.Itoa(ferr.Line))
	sp.AddEvent(a.tracer.Now(), ferr.Cause.Error())
	a.tracer.End(sp, trace.StatusFailed)
}

// traceStage records one pipeline stage retroactively (the engine times
// stages whether or not anything observes them), parented under the
// open file span — or the corpus span for fail-open rewrites and
// leak-report passes. The rewrite stage additionally gets per-rule
// child spans from the file's rule-hit deltas.
func (a *Anonymizer) traceStage(stage string, d time.Duration) {
	parent := a.corpusSpan
	if a.fileSpan != nil {
		parent = a.fileSpan.ID
	}
	start := a.tracer.Now() - int64(d)
	if start < 0 {
		start = 0
	}
	id := a.tracer.RecordSpan(trace.KindStage, stage, parent, start, int64(d), trace.StatusOK)
	if stage == stageRewrite && a.fileSpan != nil {
		a.traceRuleSpans(id, start)
	}
}

// traceRuleSpans synthesizes one span per rule that fired during the
// file, under the rewrite stage span: its duration is the wall time the
// engine attributed to the rule within this file, its "hits" attribute
// the per-file firing count — both read straight from the worker's
// Stats, which hold only the file in flight.
func (a *Anonymizer) traceRuleSpans(parent trace.SpanID, startNs int64) {
	for i, info := range a.rules.infos {
		hits := a.stats.ruleHits[i]
		if hits == 0 {
			continue
		}
		a.tracer.RecordSpan(trace.KindRule, string(info.ID), parent, startNs, a.stats.ruleTimeNs[i], trace.StatusOK,
			trace.Attr{Key: "hits", Value: strconv.FormatInt(hits, 10)})
	}
}
