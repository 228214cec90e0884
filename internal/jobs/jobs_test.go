package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confanon/internal/metrics"
	"confanon/internal/trace"
)

func testSpec(owner string) Spec {
	return Spec{
		Owner: owner,
		Label: "lab",
		Salt:  []byte("salt-" + owner),
		Files: map[string]string{"r1.conf": "hostname r1\n"},
	}
}

// okRunner completes instantly with a dataset id derived from the label.
func okRunner(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
	return &Result{
		DatasetID:  "ds-" + spec.Label,
		OwnerToken: "tok-" + spec.Label,
		Progress:   Progress{FilesTotal: len(spec.Files), FilesDone: len(spec.Files)},
	}, nil
}

// gateRunner blocks every job until release is closed, honoring ctx.
func gateRunner(release <-chan struct{}) Runner {
	return func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return okRunner(ctx, cb, spec)
		}
	}
}

func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := q.Get(id); ok && s.State == want {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := q.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, s.State, want)
	return Snapshot{}
}

func TestQueueRunsJobToDone(t *testing.T) {
	q, err := New(Config{Workers: 2, Dir: t.TempDir()}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Token == "" {
		t.Fatalf("submission missing id/token: %+v", snap)
	}
	got := waitState(t, q, snap.ID, StateDone)
	if got.DatasetID != "ds-lab" || got.OwnerToken != "tok-lab" {
		t.Fatalf("result not recorded: %+v", got)
	}
	if got.Progress.FilesDone != 1 {
		t.Fatalf("progress not recorded: %+v", got.Progress)
	}
}

func TestQueueFullRejectsWithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1, Capacity: 1, EstimatedJobSeconds: 10}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// First job occupies the lone worker, second fills the queue.
	if _, err := q.Submit(testSpec("o1")); err != nil {
		t.Fatal(err)
	}
	waitDepthDrain(t, q) // let the worker pick up job 1
	if _, err := q.Submit(testSpec("o1")); err != nil {
		t.Fatal(err)
	}
	_, err = q.Submit(testSpec("o1"))
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("third submit: %v, want OverloadError", err)
	}
	if ov.Reason != "queue_full" {
		t.Fatalf("reason %q, want queue_full", ov.Reason)
	}
	// depth 1, one 10s job each, one worker → well over the 1s floor.
	if ov.RetryAfter < 10*time.Second {
		t.Fatalf("RetryAfter %v does not reflect backlog", ov.RetryAfter)
	}
}

func waitDepthDrain(t *testing.T, q *Queue) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if q.Depth() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("queue depth never drained: %d", q.Depth())
}

func TestPerOwnerQuota(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1, Capacity: 16, PerOwnerInFlight: 2}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(testSpec("alice")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = q.Submit(testSpec("alice"))
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "owner_quota" {
		t.Fatalf("over-quota submit: %v, want owner_quota overload", err)
	}
	// A different owner is unaffected.
	if _, err := q.Submit(testSpec("bob")); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
}

func TestPerOwnerRateLimit(t *testing.T) {
	q, err := New(Config{Workers: 1, Capacity: 64, OwnerRatePerMin: 2}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Bucket is one minute deep: 2 tokens, then dry.
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(testSpec("alice")); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err = q.Submit(testSpec("alice"))
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "owner_rate" {
		t.Fatalf("rate-limited submit: %v, want owner_rate overload", err)
	}
	if ov.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v below floor", ov.RetryAfter)
	}
	if _, err := q.Submit(testSpec("bob")); err != nil {
		t.Fatalf("bob rate-limited by alice: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1, Capacity: 8, Dir: t.TempDir()}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	first, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first.ID, StateRunning)
	second, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := q.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Fatalf("queued job after cancel: %q, want cancelled", snap.State)
	}
	// The tombstone must not run once the worker frees up.
	if _, err := q.Cancel(second.ID); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	// Record on disk must have shed the spec.
	rec := readRecord(t, q, second.ID)
	if len(rec.Files) != 0 || len(rec.Salt) != 0 {
		t.Fatal("cancelled job record kept salt/files")
	}
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateRunning)
	if _, err := q.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, StateCancelled)
	if got.Err != "cancelled" {
		t.Fatalf("cancelled job err %q", got.Err)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	q, err := New(Config{}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown): %v, want ErrNotFound", err)
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1, JobTimeout: 30 * time.Millisecond}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, snap.ID, StateFailed)
	if !strings.Contains(got.Err, "timed out") {
		t.Fatalf("timeout err %q", got.Err)
	}
}

func TestFailClosedProblemsFailTheJob(t *testing.T) {
	q, err := New(Config{}, func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
		return &Result{Problems: []string{"r1.conf: failed"}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, _ := q.Submit(testSpec("o1"))
	got := waitState(t, q, snap.ID, StateFailed)
	if got.DatasetID != "" {
		t.Fatal("unpublishable job still carries a dataset id")
	}
	if len(got.Problems) != 1 {
		t.Fatalf("problems not surfaced: %+v", got.Problems)
	}
}

func TestDrainRefusesIntakeAndFinishesRunning(t *testing.T) {
	release := make(chan struct{})
	q, err := New(Config{Workers: 1, Dir: t.TempDir()}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	running, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running.ID, StateRunning)
	queued, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- q.Drain(context.Background()) }()
	deadline := time.Now().Add(2 * time.Second)
	for !q.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Submit(testSpec("o2")); err == nil {
		t.Fatal("Submit accepted during drain")
	} else {
		var ov *OverloadError
		if !errors.As(err, &ov) || ov.Reason != "draining" {
			t.Fatalf("drain refusal: %v", err)
		}
	}
	close(release) // let the running job finish gracefully
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s, _ := q.Get(running.ID); s.State != StateDone {
		t.Fatalf("running job after graceful drain: %q, want done", s.State)
	}
	// The queued job never started; its record must still be resumable.
	if s, _ := q.Get(queued.ID); s.State != StateQueued {
		t.Fatalf("queued job after drain: %q, want queued", s.State)
	}
	rec := readRecord(t, q, queued.ID)
	if rec.State != StateQueued || len(rec.Files) == 0 {
		t.Fatalf("queued record not resumable: state=%q files=%d", rec.State, len(rec.Files))
	}
}

func TestDrainDeadlineInterruptsRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q, err := New(Config{Workers: 1, Dir: t.TempDir()}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain past deadline: %v", err)
	}
	got, _ := q.Get(snap.ID)
	if got.State != StateInterrupted {
		t.Fatalf("deadline-drained job: %q, want interrupted", got.State)
	}
	// Interrupted records keep their spec so the next process resumes them.
	rec := readRecord(t, q, snap.ID)
	if rec.State != StateInterrupted || len(rec.Files) == 0 || len(rec.Salt) == 0 {
		t.Fatalf("interrupted record not resumable: %+v", rec.State)
	}
}

func TestResumeRequeuesPersistedJobs(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	q1, err := New(Config{Workers: 1, Dir: dir}, gateRunner(release))
	if err != nil {
		t.Fatal(err)
	}
	running, _ := q1.Submit(testSpec("o1"))
	waitState(t, q1, running.ID, StateRunning)
	queued, _ := q1.Submit(testSpec("o1"))
	finishedSpec := testSpec("o1")
	finishedSpec.Label = "done-lab"
	q1.Close() // abrupt: running job becomes interrupted, queued stays queued

	waitState(t, q1, running.ID, StateInterrupted)

	var resumedOwners sync.Map
	q2, err := New(Config{Workers: 2, Dir: dir}, func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
		resumedOwners.Store(spec.Label, true)
		return okRunner(ctx, cb, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Resumed() != 2 {
		t.Fatalf("Resumed() = %d, want 2", q2.Resumed())
	}
	waitState(t, q2, running.ID, StateDone)
	waitState(t, q2, queued.ID, StateDone)
	// Token survives the restart (same client keeps polling).
	if s, _ := q2.Get(running.ID); s.Token != running.Token {
		t.Fatal("job token changed across restart")
	}
	if s, _ := q2.Get(running.ID); s.Attempts < 2 {
		t.Fatalf("interrupted job attempts = %d, want >= 2", s.Attempts)
	}
}

func TestResumeSetsAsideCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-bad.json"), []byte("{torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	q, err := New(Config{Dir: dir}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if probs := q.LoadProblems(); len(probs) != 1 || !strings.Contains(probs[0], "job-bad.json") {
		t.Fatalf("LoadProblems = %v", probs)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-bad.json.corrupt")); err != nil {
		t.Fatalf("corrupt record not set aside: %v", err)
	}
	// The queue still works.
	snap, err := q.Submit(testSpec("o1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap.ID, StateDone)
}

func TestTerminalEviction(t *testing.T) {
	dir := t.TempDir()
	q, err := New(Config{Workers: 1, MaxTerminal: 2, Dir: dir}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		spec := testSpec("o1")
		spec.Label = fmt.Sprintf("lab%d", i)
		snap, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, snap.ID, StateDone)
		ids = append(ids, snap.ID)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest terminal job not evicted")
	}
	if _, ok := q.Get(ids[3]); !ok {
		t.Fatal("newest terminal job evicted")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-"+ids[0]+".json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("evicted record still on disk: %v", err)
	}
}

func TestDoneRecordShedsSpecKeepsResult(t *testing.T) {
	q, err := New(Config{Workers: 1, Dir: t.TempDir()}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, _ := q.Submit(testSpec("o1"))
	waitState(t, q, snap.ID, StateDone)
	rec := readRecord(t, q, snap.ID)
	if len(rec.Salt) != 0 || len(rec.Files) != 0 {
		t.Fatal("done record kept salt/files")
	}
	if rec.DatasetID != "ds-lab" {
		t.Fatalf("done record lost result: %+v", rec)
	}
}

func TestMetricsAndSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.NewTracer()
	q, err := New(Config{Workers: 1, Metrics: reg, Tracer: tr}, func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
		if cb.Span == nil || cb.Tracer == nil {
			t.Error("runner callbacks missing span/tracer")
		}
		cb.Tracer.RecordSpan(trace.KindFile, "r1.conf", cb.Span.ID, cb.Tracer.Now(), 1, trace.StatusOK)
		return okRunner(ctx, cb, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	snap, _ := q.Submit(testSpec("o1"))
	waitState(t, q, snap.ID, StateDone)
	q.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`confanon_jobs_submitted_total 1`,
		`confanon_jobs_finished_total{state="done"} 1`,
		`confanon_jobs_queue_depth 0`,
		`confanon_jobs_running 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	spans := tr.Spans()
	var jobSpan *trace.Span
	for _, s := range spans {
		if s.Kind == trace.KindJob {
			jobSpan = s
		}
	}
	if jobSpan == nil {
		t.Fatal("no job span recorded")
	}
	if jobSpan.Status != trace.StatusOK || jobSpan.Attr("state") != "done" {
		t.Fatalf("job span: %+v", jobSpan)
	}
	foundChild := false
	for _, s := range spans {
		if s.Kind == trace.KindFile && s.Parent == jobSpan.ID {
			foundChild = true
		}
	}
	if !foundChild {
		t.Fatal("file span not parented under job span")
	}
}

func TestSubmitValidation(t *testing.T) {
	q, err := New(Config{}, okRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Submit(Spec{Files: map[string]string{"a": "b"}}); err == nil {
		t.Fatal("ownerless spec accepted")
	}
	if _, err := q.Submit(Spec{Owner: "o"}); err == nil {
		t.Fatal("fileless spec accepted")
	}
}

func TestConcurrentSubmitCancelPoll(t *testing.T) {
	var ran atomic.Int64
	q, err := New(Config{Workers: 4, Capacity: 256}, func(ctx context.Context, cb Callbacks, spec Spec) (*Result, error) {
		ran.Add(1)
		return okRunner(ctx, cb, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				snap, err := q.Submit(testSpec(fmt.Sprintf("owner%d", g)))
				if err != nil {
					continue // backpressure is a valid answer under load
				}
				q.Get(snap.ID)
				if i%3 == 0 {
					q.Cancel(snap.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for (q.Depth() > 0 || q.Running() > 0) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	q.Close()
}

func readRecord(t *testing.T, q *Queue, id string) record {
	t.Helper()
	blob, err := os.ReadFile(q.recordPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestStateTerminalAndOverloadError pins the small externally-consumed
// surfaces: which states a poller may stop on, and that a refusal's
// message names its reason (it ends up in 429/503 bodies and logs).
func TestStateTerminalAndOverloadError(t *testing.T) {
	for s, want := range map[State]bool{
		StateQueued:      false,
		StateRunning:     false,
		StateDone:        true,
		StateFailed:      true,
		StateCancelled:   true,
		StateInterrupted: true,
	} {
		if got := s.Terminal(); got != want {
			t.Errorf("State(%q).Terminal() = %v, want %v", s, got, want)
		}
	}
	err := &OverloadError{Reason: "queue_full", RetryAfter: 3 * time.Second}
	if msg := err.Error(); !strings.Contains(msg, "queue_full") || !strings.Contains(msg, "3s") {
		t.Errorf("OverloadError.Error() = %q, want the reason and retry hint", msg)
	}
}
