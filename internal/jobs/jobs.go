// Package jobs is the portal's asynchronous job queue: the layer that
// turns "anonymize this corpus" from a synchronous HTTP handler into a
// submission the paper's §7 clearinghouse can accept at carrier scale.
// A bounded worker pool drains a bounded queue; everything past the
// bounds is refused with an explicit retry hint rather than absorbed —
// overload is a first-class answer, not a timeout.
//
// # Crash survivability
//
// A submission is acknowledged only after its job record — spec
// included — is durably on disk (fsynced temp file + rename). Workers
// persist every state transition the same way, and a job's anonymization
// progress is committed file-by-file through the owner's mapping ledger
// (internal/store) by the runner. A killed process therefore loses no
// acknowledged job: on the next start New replays the records directory,
// re-queues every non-terminal job, and the replayed mapping ledger
// guarantees the re-run produces byte-identical output to a process that
// never died. Job records carry the owner's salt and raw files while the
// job is live — the directory is exactly as sensitive as the mapping
// ledgers (0700/0600) and the two belong on the same trust boundary.
//
// # Overload and failure semantics
//
// Submit enforces, in order: drain state (refused while shutting down),
// a per-owner token-bucket submission rate, a per-owner in-flight quota,
// and the global queue capacity. Every refusal carries a Retry-After
// computed from live queue state (depth × average job duration ÷
// workers), so clients back off proportionally to the actual backlog.
// Running jobs are cancellable (Cancel) and bounded (Config.JobTimeout);
// both thread through the context the runner receives. Drain stops
// intake, lets running jobs finish inside the caller's deadline, then
// cancels the stragglers — whose committed progress is already durable
// and whose records stay resumable — so a SIGTERM exit loses nothing.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"confanon/internal/metrics"
	"confanon/internal/retry"
	"confanon/internal/store"
	"confanon/internal/trace"
)

// RecordSchema identifies the on-disk job record layout.
const RecordSchema = "confanon.job/v1"

// State is a job's lifecycle position.
type State string

// Job states. Queued, Running and Interrupted survive a restart (their
// records keep the spec and are re-queued by New); Done, Failed and
// Cancelled are terminal and their records drop the spec.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a state is final for this process. An
// interrupted job is terminal here but resumable by the next process.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Spec is what a job does: anonymize Files under Salt for Owner. Owner
// is an opaque per-owner key (the portal passes the salt digest) used
// for quotas and rate limits — never the salt itself.
type Spec struct {
	Owner string
	Label string
	Salt  []byte
	Files map[string]string
	// RulePacks names the admin-registered rule packs the job's
	// anonymization must load, in merge order. The queue persists the
	// names (not the packs): a resumed job re-resolves them against the
	// allowlist of the process that resumes it.
	RulePacks []string
}

// Progress is a job's file accounting: FilesTotal from submission, the
// rest as the runner's Result reports them at completion.
type Progress struct {
	FilesTotal       int `json:"files_total"`
	FilesDone        int `json:"files_done"`
	FilesFailed      int `json:"files_failed"`
	FilesQuarantined int `json:"files_quarantined"`
}

// Result is what a successful runner invocation produced. Problems
// non-empty means the corpus was processed but is unpublishable
// (fail-closed: the job is marked failed and nothing was stored).
type Result struct {
	DatasetID  string
	OwnerToken string
	Problems   []string
	Progress   Progress
}

// Callbacks are the hooks a runner reports through while it works.
type Callbacks struct {
	// Span is the job's root span, nil when no tracer is wired; runners
	// hang per-file child spans off it via Tracer.
	Span   *trace.Span
	Tracer *trace.Tracer
}

// Runner executes one job. The context carries cancellation (Cancel,
// drain, shutdown) and the per-job timeout; a runner must return
// promptly once it is done. Returning an error means the run did not
// complete (the queue classifies cancellation, timeout, and interruption
// from the context); returning a Result with Problems means it completed
// but fail-closed gating withheld publication.
type Runner func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error)

// Config bounds the queue. Zero values pick conservative defaults.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// Capacity caps the number of queued (not yet running) jobs; beyond
	// it Submit refuses with reason "queue_full" (default 64).
	Capacity int
	// PerOwnerInFlight caps one owner's queued+running jobs (0 = no cap).
	PerOwnerInFlight int
	// OwnerRatePerMin is a per-owner token-bucket submission rate in
	// jobs per minute, with a bucket one minute deep (0 = no limit).
	OwnerRatePerMin float64
	// JobTimeout bounds one job's run (0 = none); an expired job is
	// failed with the deadline error.
	JobTimeout time.Duration
	// EstimatedJobSeconds seeds the Retry-After math before any job has
	// completed (default 1s). Live completions refine it via EWMA.
	EstimatedJobSeconds float64
	// Dir is the job-record directory; "" disables persistence (jobs die
	// with the process). Holds salts and raw files while jobs are live —
	// as sensitive as the mapping ledgers.
	Dir string
	// MaxTerminal caps how many finished jobs stay queryable; the oldest
	// are evicted, records included (default 1024).
	MaxTerminal int
	// Metrics, when set, registers the queue's instruments.
	Metrics *metrics.Registry
	// Tracer, when set, records one KindJob span per job; runners attach
	// per-file children.
	Tracer *trace.Tracer
}

func (c *Config) workers() int     { return maxInt(1, c.Workers, 2) }
func (c *Config) capacity() int    { return maxInt(1, c.Capacity, 64) }
func (c *Config) maxTerminal() int { return maxInt(1, c.MaxTerminal, 1024) }
func (c *Config) estSeconds() float64 {
	if c.EstimatedJobSeconds > 0 {
		return c.EstimatedJobSeconds
	}
	return 1
}

// maxInt returns set if >= floor, else def (both floor and the "unset"
// zero route to def).
func maxInt(floor, set, def int) int {
	if set >= floor {
		return set
	}
	return def
}

// OverloadError is Submit's refusal: why, and when retrying is worth it.
// The portal maps Reason "draining" to 503 and the rest to 429, with
// RetryAfter in the Retry-After header either way.
type OverloadError struct {
	Reason     string // "queue_full", "owner_quota", "owner_rate", "draining"
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("jobs: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Second))
}

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("jobs: no such job")

// Snapshot is a point-in-time copy of one job's externally visible
// state. Token authenticates status queries and cancellation; the portal
// compares it in constant time and never serializes it back out.
type Snapshot struct {
	ID         string
	Token      string
	Owner      string
	Label      string
	State      State
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	Progress   Progress
	Attempts   int
	Err        string
	Problems   []string
	DatasetID  string
	OwnerToken string
}

// job is the internal mutable record; every field is guarded by Queue.mu.
type job struct {
	Snapshot
	spec            Spec
	cancel          context.CancelFunc
	cancelRequested bool
}

type ownerState struct {
	inflight int
	tokens   float64
	last     time.Time
}

type queueMetrics struct {
	submitted *metrics.Counter
	rejected  *metrics.CounterVec
	finished  *metrics.CounterVec
	depth     *metrics.Gauge
	running   *metrics.Gauge
	wait      *metrics.Histogram
	run       *metrics.Histogram
	resumed   *metrics.Counter
}

func newQueueMetrics(reg *metrics.Registry) *queueMetrics {
	if reg == nil {
		return nil
	}
	buckets := []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}
	return &queueMetrics{
		submitted: reg.Counter("confanon_jobs_submitted_total", "jobs accepted by Submit"),
		rejected: reg.CounterVec("confanon_jobs_rejected_total",
			"submissions refused, by reason", "reason"),
		finished: reg.CounterVec("confanon_jobs_finished_total",
			"jobs reaching a terminal state, by state", "state"),
		depth:   reg.Gauge("confanon_jobs_queue_depth", "jobs queued and not yet running"),
		running: reg.Gauge("confanon_jobs_running", "jobs currently executing"),
		wait: reg.Histogram("confanon_jobs_wait_seconds",
			"queue wait from submission to start", buckets...),
		run: reg.Histogram("confanon_jobs_run_seconds",
			"job execution time", buckets...),
		resumed: reg.Counter("confanon_jobs_resumed_total",
			"persisted jobs re-queued at startup"),
	}
}

// Queue is the bounded async job queue. Safe for concurrent use.
type Queue struct {
	cfg Config
	run Runner

	mu       sync.Mutex
	jobs     map[string]*job
	owners   map[string]*ownerState
	terminal []string // terminal job ids, oldest first (eviction order)
	queued   int
	active   int
	draining bool
	closed   bool
	avgRun   float64 // EWMA of completed job seconds

	loadProblems []string
	resumed      int

	pending    chan string
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	closeOnce  sync.Once

	m *queueMetrics
}

// New builds the queue, replays the record directory (re-queuing every
// job that was queued, running, or interrupted when the previous process
// died), and starts the worker pool. Records that cannot be parsed are
// renamed aside with a ".corrupt" suffix and reported via LoadProblems —
// a damaged job must not brick the queue that thousands of healthy jobs
// depend on.
func New(cfg Config, run Runner) (*Queue, error) {
	if run == nil {
		return nil, errors.New("jobs: nil runner")
	}
	q := &Queue{
		cfg:    cfg,
		run:    run,
		jobs:   make(map[string]*job),
		owners: make(map[string]*ownerState),
		avgRun: cfg.estSeconds(),
		m:      newQueueMetrics(cfg.Metrics),
	}
	q.baseCtx, q.baseCancel = context.WithCancel(context.Background())

	var resumable []*job
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
			return nil, err
		}
		var err error
		if resumable, err = q.load(); err != nil {
			return nil, err
		}
	}
	// The channel is sized past Capacity so cancelled-but-undrained
	// entries (tombstones) and the resumed backlog never block Submit;
	// the real bound is the queued counter.
	q.pending = make(chan string, 2*cfg.capacity()+len(resumable)+16)
	for _, j := range resumable {
		q.jobs[j.ID] = j
		q.owner(j.Owner).inflight++
		q.queued++
		q.pending <- j.ID
		q.resumed++
		if q.m != nil {
			q.m.resumed.Inc()
			q.m.depth.Add(1)
		}
	}
	for i := 0; i < cfg.workers(); i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// Resumed reports how many persisted jobs New re-queued.
func (q *Queue) Resumed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.resumed
}

// LoadProblems lists the job records New had to set aside as corrupt.
func (q *Queue) LoadProblems() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]string(nil), q.loadProblems...)
}

// Depth reports the queued (not yet running) job count.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// Running reports the executing job count.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active
}

// Draining reports whether Drain has begun (intake refused).
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// owner returns (creating) the per-owner bookkeeping. Called with mu held.
func (q *Queue) owner(key string) *ownerState {
	o := q.owners[key]
	if o == nil {
		o = &ownerState{tokens: q.burst(), last: time.Now()}
		q.owners[key] = o
	}
	return o
}

func (q *Queue) burst() float64 {
	if q.cfg.OwnerRatePerMin <= 0 {
		return 0
	}
	if q.cfg.OwnerRatePerMin < 1 {
		return 1
	}
	return q.cfg.OwnerRatePerMin
}

// retryAfterLocked estimates how long a refused client should wait: the
// backlog ahead of it, spread over the worker pool, at the average job
// duration. Clamped to [1s, 5m]. Called with mu held.
func (q *Queue) retryAfterLocked(ahead int) time.Duration {
	secs := float64(ahead+1) * q.avgRun / float64(q.cfg.workers())
	d := time.Duration(secs * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

func (q *Queue) reject(reason string, after time.Duration) error {
	if q.m != nil {
		q.m.rejected.With(reason).Inc()
	}
	return &OverloadError{Reason: reason, RetryAfter: after}
}

// Submit validates, persists, and enqueues one job. The returned
// Snapshot carries the job id and its secret token; the job is durably
// recorded before Submit returns, so an acknowledged submission survives
// any subsequent crash. Refusals are *OverloadError.
func (q *Queue) Submit(spec Spec) (Snapshot, error) {
	if spec.Owner == "" {
		return Snapshot{}, errors.New("jobs: spec owner required")
	}
	if len(spec.Files) == 0 {
		return Snapshot{}, errors.New("jobs: spec has no files")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining || q.closed {
		return Snapshot{}, q.reject("draining", q.retryAfterLocked(q.queued+q.active))
	}
	o := q.owner(spec.Owner)
	if rate := q.cfg.OwnerRatePerMin; rate > 0 {
		now := time.Now()
		o.tokens += now.Sub(o.last).Minutes() * rate
		if b := q.burst(); o.tokens > b {
			o.tokens = b
		}
		o.last = now
		if o.tokens < 1 {
			wait := time.Duration((1 - o.tokens) / rate * float64(time.Minute))
			if wait < time.Second {
				wait = time.Second
			}
			return Snapshot{}, q.reject("owner_rate", wait)
		}
		o.tokens--
	}
	if max := q.cfg.PerOwnerInFlight; max > 0 && o.inflight >= max {
		return Snapshot{}, q.reject("owner_quota", q.retryAfterLocked(o.inflight))
	}
	if q.queued >= q.cfg.capacity() || len(q.pending) == cap(q.pending) {
		return Snapshot{}, q.reject("queue_full", q.retryAfterLocked(q.queued))
	}

	j := &job{
		Snapshot: Snapshot{
			ID:        randomHex(12),
			Token:     randomHex(16),
			Owner:     spec.Owner,
			Label:     spec.Label,
			State:     StateQueued,
			Submitted: time.Now().UTC(),
			Progress:  Progress{FilesTotal: len(spec.Files)},
		},
		spec: spec,
	}
	if err := q.persistLocked(j); err != nil {
		return Snapshot{}, fmt.Errorf("jobs: persisting submission: %w", err)
	}
	q.jobs[j.ID] = j
	o.inflight++
	q.queued++
	q.pending <- j.ID
	if q.m != nil {
		q.m.submitted.Inc()
		q.m.depth.Add(1)
	}
	return j.Snapshot, nil
}

// Get returns a job's snapshot.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshotLocked(), true
}

func (j *job) snapshotLocked() Snapshot {
	s := j.Snapshot
	s.Problems = append([]string(nil), j.Problems...)
	return s
}

// Cancel requests a job's cancellation: a queued job is cancelled
// immediately; a running one has its context cancelled and finalizes as
// cancelled when the runner returns; a terminal job is left as it is
// (idempotent). The returned snapshot reflects the post-call state.
func (q *Queue) Cancel(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		j.cancelRequested = true
		q.queued--
		if q.m != nil {
			q.m.depth.Add(-1)
		}
		q.finalizeLocked(j, StateCancelled, "cancelled before start", nil)
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshotLocked(), nil
}

// worker drains the pending channel until it closes or the queue's base
// context dies.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.baseCtx.Done():
			return
		case id, ok := <-q.pending:
			if !ok {
				return
			}
			q.runOne(id)
		}
	}
}

// runOne executes one dequeued job end to end.
func (q *Queue) runOne(id string) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		q.mu.Unlock()
		return // tombstone: cancelled (or evicted) while queued
	}
	if q.draining {
		// Leave it queued on disk: the next process resumes it. The
		// in-memory state stays "queued" — accurate, it never started.
		q.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Started = time.Now().UTC()
	j.Attempts++
	spec := j.spec
	jctx, cancel := context.WithCancel(q.baseCtx)
	if q.cfg.JobTimeout > 0 {
		jctx, cancel = context.WithTimeout(q.baseCtx, q.cfg.JobTimeout)
	}
	j.cancel = cancel
	if err := q.persistLocked(j); err != nil {
		// The record could not be updated; the job still runs — the
		// stale "queued" record merely re-runs it after a crash, which
		// the ledger makes byte-identical anyway.
		q.noteLoadProblem(fmt.Sprintf("job %s: persisting running state: %v", j.ID, err))
	}
	q.queued--
	q.active++
	if q.m != nil {
		q.m.depth.Add(-1)
		q.m.running.Add(1)
		q.m.wait.Observe(j.Started.Sub(j.Submitted).Seconds())
	}
	q.mu.Unlock()
	defer cancel()

	var sp *trace.Span
	if tr := q.cfg.Tracer; tr != nil {
		sp = tr.StartSpan(trace.KindJob, j.ID, 0)
		sp.SetAttr("owner", spec.Owner)
		sp.SetAttr("files", strconv.Itoa(len(spec.Files)))
		if spec.Label != "" {
			sp.SetAttr("label", spec.Label)
		}
	}
	start := time.Now()
	res, err := q.run(jctx, Callbacks{Span: sp, Tracer: q.cfg.Tracer}, spec)
	elapsed := time.Since(start)

	q.mu.Lock()
	j.cancel = nil
	q.active--
	if q.m != nil {
		q.m.running.Add(-1)
		q.m.run.Observe(elapsed.Seconds())
	}
	switch {
	case err != nil && j.cancelRequested:
		q.finalizeLocked(j, StateCancelled, "cancelled", nil)
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		q.observeRunLocked(elapsed)
		q.finalizeLocked(j, StateFailed, fmt.Sprintf("timed out after %s", q.cfg.JobTimeout), nil)
	case err != nil && errors.Is(err, context.Canceled):
		// Not user-cancelled: the process is draining or shutting down.
		// Committed progress is durable; keep the spec so the next
		// process resumes the job.
		q.finalizeLocked(j, StateInterrupted, "interrupted by shutdown", nil)
	case err != nil:
		q.observeRunLocked(elapsed)
		q.finalizeLocked(j, StateFailed, err.Error(), nil)
	default:
		q.observeRunLocked(elapsed)
		j.Progress = res.Progress
		if len(res.Problems) > 0 {
			q.finalizeLocked(j, StateFailed, "corpus not publishable", res.Problems)
		} else {
			j.DatasetID = res.DatasetID
			j.OwnerToken = res.OwnerToken
			q.finalizeLocked(j, StateDone, "", nil)
		}
	}
	state := j.State
	q.mu.Unlock()

	if sp != nil {
		sp.SetAttr("state", string(state))
		status := trace.StatusOK
		if state != StateDone {
			status = trace.StatusFailed
		}
		q.cfg.Tracer.End(sp, status)
	}
}

// observeRunLocked folds one completed run into the EWMA the Retry-After
// math uses. Called with mu held.
func (q *Queue) observeRunLocked(elapsed time.Duration) {
	const alpha = 0.3
	q.avgRun = (1-alpha)*q.avgRun + alpha*elapsed.Seconds()
}

// finalizeLocked moves a job to a terminal state, persists the record
// (spec stripped unless the state is resumable), and updates owner
// accounting and eviction bookkeeping. Called with mu held.
func (q *Queue) finalizeLocked(j *job, state State, errMsg string, problems []string) {
	j.State = state
	j.Finished = time.Now().UTC()
	j.Err = errMsg
	j.Problems = problems
	if state != StateInterrupted {
		j.spec = Spec{} // the salt and raw files have no business outliving the job
	}
	if o := q.owners[j.Owner]; o != nil && o.inflight > 0 {
		o.inflight--
	}
	if q.m != nil {
		q.m.finished.With(string(state)).Inc()
	}
	if err := q.persistLocked(j); err != nil {
		q.noteLoadProblem(fmt.Sprintf("job %s: persisting %s state: %v", j.ID, state, err))
	}
	q.terminal = append(q.terminal, j.ID)
	for len(q.terminal) > q.cfg.maxTerminal() {
		oldest := q.terminal[0]
		q.terminal = q.terminal[1:]
		delete(q.jobs, oldest)
		if q.cfg.Dir != "" {
			_ = os.Remove(q.recordPath(oldest))
		}
	}
}

// noteLoadProblem appends an operational problem for the portal to
// surface in its log. Called with mu held.
func (q *Queue) noteLoadProblem(msg string) {
	q.loadProblems = append(q.loadProblems, msg)
}

// Drain stops intake and winds the pool down: running jobs get until ctx
// expires to finish on their own; stragglers are then cancelled — their
// per-file ledger commits are already durable and their records stay
// resumable. Queued jobs are left persisted for the next process. Drain
// returns once every worker has stopped.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	graceful := true
wait:
	for q.Running() > 0 {
		select {
		case <-ctx.Done():
			graceful = false
			break wait
		case <-tick.C:
		}
	}
	if !graceful {
		q.mu.Lock()
		for _, j := range q.jobs {
			if j.State == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		q.mu.Unlock()
		// Cancelled runners return at their next file boundary; bound the
		// wait so a wedged runner cannot hold the exit hostage forever.
		deadline := time.Now().Add(30 * time.Second)
		for q.Running() > 0 && time.Now().Before(deadline) {
			<-tick.C
		}
	}
	q.stop()
	if !graceful {
		return ctx.Err()
	}
	return nil
}

// Close shuts the queue down without the drain courtesy: the base
// context is cancelled (interrupting running jobs, which finalize as
// interrupted and stay resumable) and the workers are joined. Tests and
// abnormal exits use this; servers should Drain.
func (q *Queue) Close() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	q.baseCancel()
	q.stop()
}

// stop closes the intake channel exactly once and joins the workers.
func (q *Queue) stop() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		close(q.pending)
	})
	q.wg.Wait()
}

// record is the on-disk job form. Live states keep the spec (salt and
// files — the resume payload); terminal states shed it.
type record struct {
	Schema     string            `json:"schema"`
	ID         string            `json:"id"`
	Token      string            `json:"token"`
	Owner      string            `json:"owner"`
	Label      string            `json:"label,omitempty"`
	State      State             `json:"state"`
	Submitted  time.Time         `json:"submitted"`
	Started    time.Time         `json:"started,omitempty"`
	Finished   time.Time         `json:"finished,omitempty"`
	Progress   Progress          `json:"progress"`
	Attempts   int               `json:"attempts"`
	Err        string            `json:"err,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	DatasetID  string            `json:"dataset_id,omitempty"`
	OwnerToken string            `json:"owner_token,omitempty"`
	Salt       []byte            `json:"salt,omitempty"`
	Files      map[string]string `json:"files,omitempty"`
	RulePacks  []string          `json:"rule_packs,omitempty"`
}

func (q *Queue) recordPath(id string) string {
	return filepath.Join(q.cfg.Dir, "job-"+id+".json")
}

// persistLocked writes the job's record atomically (fsynced temp +
// rename, transient-I/O retried). A no-op without a directory. Called
// with mu held — job persistence is control-plane work, never on the
// anonymization hot path.
func (q *Queue) persistLocked(j *job) error {
	if q.cfg.Dir == "" {
		return nil
	}
	rec := record{
		Schema:     RecordSchema,
		ID:         j.ID,
		Token:      j.Token,
		Owner:      j.Owner,
		Label:      j.Label,
		State:      j.State,
		Submitted:  j.Submitted,
		Started:    j.Started,
		Finished:   j.Finished,
		Progress:   j.Progress,
		Attempts:   j.Attempts,
		Err:        j.Err,
		Problems:   j.Problems,
		DatasetID:  j.DatasetID,
		OwnerToken: j.OwnerToken,
		Salt:       j.spec.Salt,
		Files:      j.spec.Files,
		RulePacks:  j.spec.RulePacks,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(q.recordPath(j.ID), blob, 0o600)
}

// load replays the record directory: terminal jobs go straight into the
// index, resumable ones are returned for re-queuing (oldest submission
// first). Unreadable records are renamed aside, never fatal.
func (q *Queue) load() ([]*job, error) {
	entries, err := os.ReadDir(q.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var resumable []*job
	type done struct {
		j  *job
		at time.Time
	}
	var finished []done
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		path := filepath.Join(q.cfg.Dir, name)
		var blob []byte
		if err := retry.Do(func() (err error) { blob, err = os.ReadFile(path); return }); err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(blob, &rec); err != nil || rec.Schema != RecordSchema || rec.ID == "" {
			q.loadProblems = append(q.loadProblems,
				fmt.Sprintf("%s: unreadable job record, set aside", name))
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		j := &job{
			Snapshot: Snapshot{
				ID: rec.ID, Token: rec.Token, Owner: rec.Owner, Label: rec.Label,
				State: rec.State, Submitted: rec.Submitted, Started: rec.Started,
				Finished: rec.Finished, Progress: rec.Progress, Attempts: rec.Attempts,
				Err: rec.Err, Problems: rec.Problems,
				DatasetID: rec.DatasetID, OwnerToken: rec.OwnerToken,
			},
			spec: Spec{Owner: rec.Owner, Label: rec.Label, Salt: rec.Salt, Files: rec.Files, RulePacks: rec.RulePacks},
		}
		switch rec.State {
		case StateDone, StateFailed, StateCancelled:
			finished = append(finished, done{j: j, at: rec.Finished})
		case StateQueued, StateRunning, StateInterrupted:
			if len(rec.Files) == 0 {
				j.State = StateFailed
				j.Err = "job spec lost; cannot resume"
				finished = append(finished, done{j: j, at: rec.Finished})
				continue
			}
			// Back to the start line: the mapping ledger's committed
			// progress makes the re-run byte-identical to an
			// uninterrupted one.
			j.State = StateQueued
			j.Started = time.Time{}
			j.Finished = time.Time{}
			j.Err = ""
			resumable = append(resumable, j)
		default:
			q.loadProblems = append(q.loadProblems,
				fmt.Sprintf("%s: unknown state %q, set aside", name, rec.State))
			_ = os.Rename(path, path+".corrupt")
		}
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].at.Before(finished[k].at) })
	for _, d := range finished {
		q.jobs[d.j.ID] = d.j
		q.terminal = append(q.terminal, d.j.ID)
	}
	sort.Slice(resumable, func(i, k int) bool {
		return resumable[i].Submitted.Before(resumable[k].Submitted)
	})
	return resumable, nil
}

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("jobs: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b)
}
