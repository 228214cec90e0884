package confanon

import (
	"confanon/internal/metrics"
)

// MetricsRegistry is the observability registry the pipeline reports
// into: atomic counters, gauges, and histograms with Prometheus-text
// exposition. One registry can be shared by everything in a process —
// the engine (wired via Options.Metrics), the batch layer, parallel
// corpus workers, and the portal — and the counts merge by
// construction.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RunReportSchema identifies the RunReport JSON layout.
const RunReportSchema = "confanon.run_report/v1"

// RunReport is the machine-readable summary of one anonymization run:
// the per-status file counts of the batch, the headline Stats counters,
// and — when a MetricsRegistry was wired — the full flattened metric
// snapshot, keyed by Prometheus series identity (`name{k="v"}`). The
// counters in Counters and the portal's GET /metrics exposition agree
// series-for-series when both read the same registry; an integration
// test pins that equality.
type RunReport struct {
	Schema string `json:"schema"`

	// Per-status outcome counts (batch runs; zero for single-file use).
	FilesOK          int `json:"files_ok"`
	FilesFailed      int `json:"files_failed"`
	FilesQuarantined int `json:"files_quarantined"`

	// Headline counters duplicated out of Stats for report readers that
	// do not want to parse metric series identities.
	Files        int64 `json:"files_processed"`
	Lines        int64 `json:"lines"`
	TokensHashed int64 `json:"tokens_hashed"`
	IPsMapped    int64 `json:"ips_mapped"`
	ASNsMapped   int64 `json:"asns_mapped"`

	// Packs identifies every rule pack compiled into the run's Program
	// — the canonical built-in pack first, then user packs in load
	// order — so a report pins exactly which rule inventory produced
	// the output.
	Packs []PackMeta `json:"rule_packs,omitempty"`

	// Counters is the flattened registry snapshot (histograms expanded
	// into _bucket/_sum/_count series); nil when no registry was wired.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// NewRunReport builds a report from accumulated Stats and an optional
// registry (nil leaves Counters empty). Batch paths fill the per-status
// counts afterwards; CorpusResult carries the finished report.
func NewRunReport(stats Stats, reg *MetricsRegistry) *RunReport {
	rep := &RunReport{
		Schema:       RunReportSchema,
		Files:        stats.Files,
		Lines:        stats.Lines,
		TokensHashed: stats.TokensHashed,
		IPsMapped:    stats.IPsMapped,
		ASNsMapped:   stats.ASNsMapped,
	}
	if reg != nil {
		rep.Counters = reg.Counters()
	}
	return rep
}

// batchMetrics holds the batch layer's own instruments: per-status file
// outcomes and context cancellations. Registered idempotently, so the
// serial and parallel paths (and several runs) share the same counters.
type batchMetrics struct {
	files       *metrics.CounterVec
	cancelled   *metrics.Counter
	incremental *metrics.CounterVec
}

func newBatchMetrics(reg *metrics.Registry) *batchMetrics {
	return &batchMetrics{
		files: reg.CounterVec("confanon_batch_files_total",
			"batch file outcomes by status (ok, failed, quarantined)", "status"),
		cancelled: reg.Counter("confanon_batch_cancelled_total",
			"batch runs cut short by context cancellation"),
		incremental: reg.CounterVec("confanon_incremental_files_total",
			"incremental run file dispositions (reused, full)", "mode"),
	}
}

// countFile records one file outcome.
func (m *batchMetrics) countFile(st FileStatus) {
	if m != nil {
		m.files.With(st.String()).Inc()
	}
}

// countIncr records one incremental file disposition.
func (m *batchMetrics) countIncr(mode string) {
	if m != nil {
		m.incremental.With(mode).Inc()
	}
}

// countCancel records one cancelled batch run.
func (m *batchMetrics) countCancel() {
	if m != nil {
		m.cancelled.Inc()
	}
}

// finishReport attaches the RunReport to a finished CorpusResult,
// deriving the per-status counts from the per-file results.
func (r *CorpusResult) finishReport(reg *MetricsRegistry, packs []PackMeta) {
	rep := NewRunReport(r.Stats, reg)
	rep.Packs = packs
	for _, f := range r.Files {
		switch f.Status {
		case FileOK:
			rep.FilesOK++
		case FileFailed:
			rep.FilesFailed++
		case FileQuarantined:
			rep.FilesQuarantined++
		}
	}
	r.Report = rep
}
