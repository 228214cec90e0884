package portal

// This file is the portal's asynchronous submission surface: the layer
// that turns the synchronous POST /datasets/raw flow into 202-Accepted
// job semantics the paper's §7 clearinghouse needs at carrier scale.
// POST /jobs enqueues a raw corpus for server-side anonymization and
// returns immediately with a job id and a secret job token;
// GET /jobs/{id} reports status and file counts; DELETE /jobs/{id}
// cancels. The queue (internal/jobs) bounds workers and queue depth,
// enforces per-owner quotas and rates, and persists every job durably
// before acknowledging it — a killed portal resumes unfinished jobs at
// the next start, and the per-owner mapping ledger guarantees the re-run
// is byte-identical to an uninterrupted one.
//
// The job runner is the synchronous publish path (publishRaw) run from a
// queue worker: one whole-corpus run through the owner's shared Session,
// so a job publishes — or withholds — exactly what POST /datasets/raw
// would for the same salt and corpus, at any corpus size. The Session's
// ledger commits land at every clean file boundary during the run — the
// checkpoints a crash recovers to.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"confanon"
	"confanon/internal/jobs"
	"confanon/internal/trace"
)

// SetTracer wires a span tracer into the job pipeline: one KindJob span
// per job with retroactive per-file children (call before StartJobs).
func (s *Store) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// StartJobs builds the job queue, resumes any jobs a previous process
// left behind, and flips the portal ready. Zero-value cfg fields inherit
// the portal's wiring: records under <stateDir>/jobs, the Store's
// metrics registry and tracer. Call after SetStateDir/SetMetrics and
// before serving.
func (s *Store) StartJobs(cfg jobs.Config) error {
	if cfg.Dir == "" && s.anon.stateDir != "" {
		cfg.Dir = filepath.Join(s.anon.stateDir, "jobs")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = s.reg
	}
	if cfg.Tracer == nil {
		cfg.Tracer = s.tracer
	}
	run := s.jobRunner
	if run == nil {
		run = s.runJob
	}
	q, err := jobs.New(cfg, run)
	if err != nil {
		return fmt.Errorf("portal: starting job queue: %w", err)
	}
	s.jobs = q
	for _, p := range q.LoadProblems() {
		s.slog().Warn("job record set aside", "problem", p)
	}
	if n := q.Resumed(); n > 0 {
		s.slog().Info("resumed persisted jobs", "count", n)
	}
	s.ready.Store(true)
	return nil
}

// BeginDrain flips the portal not-ready (GET /readyz answers 503, so
// load balancers stop routing) and refuses new job submissions. It does
// not wait; call DrainJobs once the HTTP server has stopped accepting.
func (s *Store) BeginDrain() { s.ready.Store(false) }

// DrainJobs winds the job queue down: running jobs get until ctx to
// finish, stragglers are interrupted resumably. A no-op without
// StartJobs.
func (s *Store) DrainJobs(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Drain(ctx)
}

// Ready reports whether the portal should receive traffic: jobs started
// (startup replay done) and not draining.
func (s *Store) Ready() bool {
	return s.ready.Load() && s.jobs != nil && !s.jobs.Draining()
}

// handleReadyz is the routing probe — distinct from /healthz (liveness):
// a portal mid-startup or mid-drain is alive but must not receive new
// work.
func (s *Store) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		status := "starting"
		if s.jobs != nil && (s.jobs.Draining() || !s.ready.Load()) {
			status = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

type jobSubmitResponse struct {
	JobID    string `json:"job_id"`
	JobToken string `json:"job_token"`
	Status   string `json:"status"`
}

// jobView is the status representation GET /jobs/{id} serves. The job
// token authenticates the request and is never echoed back; the owner
// token appears only once the dataset is published.
type jobView struct {
	JobID      string        `json:"job_id"`
	Label      string        `json:"label,omitempty"`
	State      string        `json:"state"`
	Progress   jobs.Progress `json:"progress"`
	Attempts   int           `json:"attempts,omitempty"`
	Error      string        `json:"error,omitempty"`
	Problems   []string      `json:"problems,omitempty"`
	DatasetID  string        `json:"dataset_id,omitempty"`
	OwnerToken string        `json:"owner_token,omitempty"`
}

func viewOf(snap jobs.Snapshot) jobView {
	return jobView{
		JobID:      snap.ID,
		Label:      snap.Label,
		State:      string(snap.State),
		Progress:   snap.Progress,
		Attempts:   snap.Attempts,
		Error:      snap.Err,
		Problems:   snap.Problems,
		DatasetID:  snap.DatasetID,
		OwnerToken: snap.OwnerToken,
	}
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// rounded up so clients never return early).
func retryAfterSeconds(d time.Duration) string {
	return strconv.Itoa(int(math.Ceil(d.Seconds())))
}

// handleSubmitJob is POST /jobs: validate exactly like the synchronous
// raw upload (decodeRawRequest), then enqueue and answer 202 with the
// job id and token. The submission is durable before the 202 leaves. Overload answers carry
// Retry-After computed from live queue state: 429 for quota and
// capacity pressure, 503 while draining.
func (s *Store) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil || !s.ready.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "job queue unavailable"})
		return
	}
	spec, ok := s.decodeRawRequest(w, r)
	if !ok {
		return
	}
	snap, err := s.jobs.Submit(spec)
	if err != nil {
		if ov, ok := err.(*jobs.OverloadError); ok {
			status := http.StatusTooManyRequests
			if ov.Reason == "draining" {
				status = http.StatusServiceUnavailable
			}
			w.Header().Set("Retry-After", retryAfterSeconds(ov.RetryAfter))
			writeJSON(w, status, map[string]string{"error": "overloaded: " + ov.Reason})
			return
		}
		s.slog().Error("job submission failed", "err", err)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "submission failed: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		JobID:    snap.ID,
		JobToken: snap.Token,
		Status:   "/jobs/" + snap.ID,
	})
}

// authJob resolves {id} and checks the X-Job-Token header in constant
// time. On failure the response is written and ok is false.
func (s *Store) authJob(w http.ResponseWriter, r *http.Request) (jobs.Snapshot, bool) {
	if s.jobs == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "job queue unavailable"})
		return jobs.Snapshot{}, false
	}
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return jobs.Snapshot{}, false
	}
	if !tokenEqual(r.Header.Get("X-Job-Token"), snap.Token) {
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "job token required"})
		return jobs.Snapshot{}, false
	}
	return snap, true
}

// handleJobStatus is GET /jobs/{id}: the polling endpoint.
func (s *Store) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.authJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, viewOf(snap))
}

// handleJobCancel is DELETE /jobs/{id}: queued jobs cancel immediately;
// a running job's corpus run stops before its next file, its clean
// files' ledger commits stay durable, and nothing is published. Either
// way the answer is the post-cancel view.
func (s *Store) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authJob(w, r); !ok {
		return
	}
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(snap))
}

// runJob executes one queued job through publishRaw — the synchronous
// upload's run-and-publish, over the whole corpus at once — and maps its
// outcome to the job result. Each file gets a retroactive child span
// under the job span; the run's wall time is split evenly across them —
// attribution, not profiling.
func (s *Store) runJob(ctx context.Context, cb jobs.Callbacks, spec jobs.Spec) (*jobs.Result, error) {
	start := time.Now()
	var startNs int64
	if cb.Tracer != nil {
		startNs = cb.Tracer.Now()
	}
	res, out, err := s.publishRaw(ctx, spec)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Files))
	for n := range res.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	per := time.Since(start).Nanoseconds() / int64(len(names))
	prog := jobs.Progress{FilesTotal: len(spec.Files)}
	for _, n := range names {
		spanStatus := trace.StatusFailed
		switch res.Files[n].Status {
		case confanon.FileOK:
			prog.FilesDone++
			spanStatus = trace.StatusOK
		case confanon.FileFailed:
			prog.FilesFailed++
		case confanon.FileQuarantined:
			prog.FilesQuarantined++
		}
		if cb.Tracer != nil && cb.Span != nil {
			cb.Tracer.RecordSpan(trace.KindFile, n, cb.Span.ID, startNs, per, spanStatus)
		}
	}
	return &jobs.Result{DatasetID: out.ID, OwnerToken: out.OwnerToken, Problems: out.Problems, Progress: prog}, nil
}
