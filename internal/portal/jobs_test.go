package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"confanon"
	"confanon/internal/jobs"
	"confanon/internal/metrics"
	"confanon/internal/trace"
)

// submitJob posts a raw corpus to POST /jobs and decodes the response.
func submitJob(t *testing.T, url, label, salt string, files map[string]string) (*http.Response, jobSubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(rawUploadRequest{Label: label, Salt: salt, Files: files})
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobSubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// getJob polls GET /jobs/{id} with the job token.
func getJob(t *testing.T, url, id, token string) (int, jobView) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url+"/jobs/"+id, nil)
	if token != "" {
		req.Header.Set("X-Job-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, url, id, token string) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		code, v := getJob(t, url, id, token)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if jobs.State(v.State).Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobView{}
}

// jobTestCorpus builds n routers peering a shared neighbor, so mapping
// consistency is observable across files.
func jobTestCorpus(tag string, n int) map[string]string {
	files := make(map[string]string)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("%s-r%d-confg", tag, i)
		files[name] = fmt.Sprintf(
			"hostname %s-r%d\ninterface Serial0\n ip address 12.1.%d.1 255.255.255.0\nrouter bgp 70%d\n neighbor 12.9.9.9 remote-as 702\n",
			tag, i, i, i)
	}
	return files
}

// TestJobSubmitPollFetchFlow is the 202 happy path: submit, poll to
// done, then fetch the published dataset — and its contents must be
// byte-identical to what the synchronous raw path produces for the same
// salt and corpus (the async queue is a scheduling layer, never a
// semantic one). The 17-file corpus runs past the 8- and 16-file
// boundaries a chunked runner would cut at.
func TestJobSubmitPollFetchFlow(t *testing.T) {
	const salt = "owner-secret"
	for _, n := range []int{3, 17} {
		corpus := jobTestCorpus("alpha", n)

		// Reference: the synchronous path in its own store.
		refStore := NewStore()
		refStore.AddResearcher("key-r1", "r1")
		refSrv := httptest.NewServer(refStore.Handler())
		defer refSrv.Close()
		code, ref := rawUpload(t, refSrv.URL, "ref", salt, corpus)
		if code != http.StatusCreated {
			t.Fatalf("%d files: reference upload: status %d: %+v", n, code, ref)
		}
		refText := datasetText(t, refSrv.URL, "key-r1", ref.ID)

		store := NewStore()
		store.AddResearcher("key-r1", "r1")
		if err := store.StartJobs(jobs.Config{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		srv := httptest.NewServer(store.Handler())
		defer srv.Close()

		resp, sub := submitJob(t, srv.URL, "async", salt, corpus)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%d files: POST /jobs: status %d", n, resp.StatusCode)
		}
		if sub.JobID == "" || sub.JobToken == "" {
			t.Fatalf("%d files: 202 without job id/token: %+v", n, sub)
		}
		v := pollJob(t, srv.URL, sub.JobID, sub.JobToken)
		if v.State != string(jobs.StateDone) {
			t.Fatalf("%d files: job finished %q (err %q, problems %v), want done", n, v.State, v.Error, v.Problems)
		}
		if v.DatasetID == "" || v.OwnerToken == "" {
			t.Fatalf("%d files: done job missing dataset id / owner token: %+v", n, v)
		}
		if v.Progress.FilesDone != len(corpus) || v.Progress.FilesTotal != len(corpus) {
			t.Fatalf("%d files: progress %+v, want %d done of %d", n, v.Progress, len(corpus), len(corpus))
		}
		if got := datasetText(t, srv.URL, "key-r1", v.DatasetID); got != refText {
			t.Errorf("%d files: async output differs from synchronous run:\n--- sync ---\n%s\n--- async ---\n%s", n, refText, got)
		}
	}
}

// TestJobStrictGateMatchesSyncAcrossChunks: a job gates its corpus
// exactly like the synchronous upload — against the values recorded
// from the whole corpus. The corpus is an ASN collision under salt
// "gate": z-confg peers with the AS that 701 (a-confg's peer)
// anonymizes to, so a-confg's output carries a value recorded from
// z-confg and must be quarantined. Eight fillers sort between the two,
// putting them on either side of the 8-file boundary a chunked runner
// would gate at, before z-confg has been seen.
func TestJobStrictGateMatchesSyncAcrossChunks(t *testing.T) {
	const salt = "gate"
	probe, err := confanon.New(confanon.Options{Salt: []byte(salt)}).CorpusContext(context.Background(),
		map[string]string{"p": "router bgp 65001\n neighbor 12.1.1.1 remote-as 701\n"})
	if err != nil {
		t.Fatal(err)
	}
	image := strings.Fields(strings.Split(probe.Files["p"].Text, "\n")[1])[3]
	if image == "701" {
		t.Fatal("fixture: 701 maps to itself under this salt")
	}
	corpus := map[string]string{
		"a-confg": "router bgp 65001\n neighbor 12.1.1.1 remote-as 701\n",
		"z-confg": "router bgp 65002\n neighbor 12.2.2.2 remote-as " + image + "\n",
	}
	for i := 1; i <= 8; i++ {
		corpus[fmt.Sprintf("m%d-confg", i)] = fmt.Sprintf("hostname m%d\n", i)
	}

	syncStore := NewStore()
	syncSrv := httptest.NewServer(syncStore.Handler())
	defer syncSrv.Close()
	code, ref := rawUpload(t, syncSrv.URL, "sync", salt, corpus)
	if code != http.StatusUnprocessableEntity || ref.ID != "" {
		t.Fatalf("sync upload: status %d %+v, want 422 and nothing stored", code, ref)
	}
	if len(ref.Problems) != 1 || !strings.HasPrefix(ref.Problems[0], "a-confg: quarantined") {
		t.Fatalf("sync problems %v, want a-confg quarantined alone", ref.Problems)
	}

	store := NewStore()
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	resp, sub := submitJob(t, srv.URL, "async", salt, corpus)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	v := pollJob(t, srv.URL, sub.JobID, sub.JobToken)
	if v.State != string(jobs.StateFailed) || v.DatasetID != "" {
		t.Fatalf("job finished %q with dataset %q, want failed and nothing published", v.State, v.DatasetID)
	}
	if !reflect.DeepEqual(v.Problems, ref.Problems) {
		t.Errorf("job problems %v, want the sync upload's %v", v.Problems, ref.Problems)
	}
	if v.Progress.FilesQuarantined != 1 || v.Progress.FilesDone != len(corpus)-1 {
		t.Errorf("job progress %+v, want 1 quarantined and %d done", v.Progress, len(corpus)-1)
	}
}

// TestJobTokenAuth pins the status endpoint's auth: unknown id 404, and
// without the right job token the status (which carries the owner
// token once done) is never served.
func TestJobTokenAuth(t *testing.T) {
	store := NewStore()
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	resp, sub := submitJob(t, srv.URL, "x", "owner-secret", jobTestCorpus("auth", 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if code, _ := getJob(t, srv.URL, "no-such-job", sub.JobToken); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code, _ := getJob(t, srv.URL, sub.JobID, ""); code != http.StatusUnauthorized {
		t.Errorf("missing token: status %d, want 401", code)
	}
	if code, _ := getJob(t, srv.URL, sub.JobID, "wrong"); code != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", code)
	}
	// DELETE enforces the same gate.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.JobID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless DELETE: status %d, want 401", resp2.StatusCode)
	}
}

// TestJobCancelEndpoint cancels a queued job through the API.
func TestJobCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	store := NewStore()
	store.jobRunner = func(ctx context.Context, cb jobs.Callbacks, spec jobs.Spec) (*jobs.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &jobs.Result{DatasetID: "d", OwnerToken: "o"}, nil
		}
	}
	if err := store.StartJobs(jobs.Config{Workers: 1, Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	// First job occupies the worker; second stays queued.
	_, _ = submitJob(t, srv.URL, "running", "s", jobTestCorpus("c1", 3))
	resp, sub := submitJob(t, srv.URL, "queued", "s", jobTestCorpus("c2", 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.JobID, nil)
	req.Header.Set("X-Job-Token", sub.JobToken)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	_ = json.NewDecoder(dresp.Body).Decode(&v)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted || v.State != string(jobs.StateCancelled) {
		t.Fatalf("DELETE: status %d state %q, want 202 cancelled", dresp.StatusCode, v.State)
	}
}

// TestJobSaturation429WithRetryAfter is the acceptance saturation test:
// with one worker wedged and a one-deep queue, further submissions
// answer 429 with a Retry-After computed from the backlog; a second
// owner hitting its in-flight quota gets the same treatment. Metrics
// record every refusal.
func TestJobSaturation429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := metrics.NewRegistry()
	store := NewStore()
	store.SetMetrics(reg)
	store.jobRunner = func(ctx context.Context, cb jobs.Callbacks, spec jobs.Spec) (*jobs.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &jobs.Result{DatasetID: "d", OwnerToken: "o"}, nil
		}
	}
	if err := store.StartJobs(jobs.Config{
		Workers: 1, Capacity: 1, PerOwnerInFlight: 2, EstimatedJobSeconds: 30,
	}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	// Owner A: one running, one queued (queue now full).
	if resp, _ := submitJob(t, srv.URL, "j1", "salt-a", jobTestCorpus("a1", 3)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.jobs.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond) // wait for the worker to pick job 1 up
	}
	if resp, _ := submitJob(t, srv.URL, "j2", "salt-a", jobTestCorpus("a2", 3)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}

	// Owner A is now at its in-flight quota → 429 owner_quota.
	resp, _ := submitJob(t, srv.URL, "j3", "salt-a", jobTestCorpus("a3", 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 1 {
		t.Fatalf("over-quota Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Owner B is under its own quota but the queue is full → 429
	// queue_full, with Retry-After reflecting the 30s-per-job backlog.
	resp, _ = submitJob(t, srv.URL, "j4", "salt-b", jobTestCorpus("b1", 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: status %d, want 429", resp.StatusCode)
	}
	if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 30 {
		t.Fatalf("queue-full Retry-After %q does not reflect the backlog", resp.Header.Get("Retry-After"))
	}

	var sb bytes.Buffer
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`confanon_jobs_rejected_total{reason="owner_quota"} 1`,
		`confanon_jobs_rejected_total{reason="queue_full"} 1`,
	} {
		if !bytes.Contains(sb.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadyzLifecycle pins the routing probe: 503 before the job queue
// starts, 200 while serving, 503 again once draining begins — while
// /healthz (liveness) stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	defer store.Close()

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz before StartJobs: %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz before StartJobs: %d, want 200", got)
	}
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("readyz while serving: %d, want 200", got)
	}
	store.BeginDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200", got)
	}
	// Submissions are refused with 503 + Retry-After during the drain.
	resp, _ := submitJob(t, srv.URL, "late", "s", jobTestCorpus("late", 3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain refusal missing Retry-After")
	}
}

// TestGracefulDrainLosesNoCommittedWork is the acceptance drain test: a
// job running when the drain begins finishes inside the grace window,
// its dataset is published, its mapping commits are durable — and after
// a restart on the same state directory the finished job's record is
// still queryable and the mapping replays consistently.
func TestGracefulDrainLosesNoCommittedWork(t *testing.T) {
	stateDir := t.TempDir()
	const salt = "owner-secret"

	store := NewStore()
	store.AddResearcher("key-r1", "r1")
	store.SetStateDir(stateDir)
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler())

	resp, sub := submitJob(t, srv.URL, "drained", salt, jobTestCorpus("alpha", 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// Drain once the worker has picked the job up: a job still queued
	// when the drain begins stays queued for the next process, by design.
	deadline := time.Now().Add(5 * time.Second)
	for store.jobs.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	store.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := store.DrainJobs(ctx); err != nil {
		t.Fatalf("DrainJobs: %v", err)
	}
	// The drain waited: the job must be done, not interrupted.
	code, v := getJob(t, srv.URL, sub.JobID, sub.JobToken)
	if code != http.StatusOK || v.State != string(jobs.StateDone) {
		t.Fatalf("post-drain job: status %d state %q (err %q), want done", code, v.State, v.Error)
	}
	text1 := datasetText(t, srv.URL, "key-r1", v.DatasetID)
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the terminal job record is still queryable and the salt's
	// mapping replays — a new upload of the same corpus maps identically.
	store2 := NewStore()
	store2.AddResearcher("key-r1", "r1")
	store2.SetStateDir(stateDir)
	if err := store2.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2 := httptest.NewServer(store2.Handler())
	defer srv2.Close()
	code, v2 := getJob(t, srv2.URL, sub.JobID, sub.JobToken)
	if code != http.StatusOK || v2.State != string(jobs.StateDone) {
		t.Fatalf("restarted portal lost the finished job: status %d state %q", code, v2.State)
	}
	resp2, sub2 := submitJob(t, srv2.URL, "again", salt, jobTestCorpus("alpha", 3))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", resp2.StatusCode)
	}
	v3 := pollJob(t, srv2.URL, sub2.JobID, sub2.JobToken)
	if v3.State != string(jobs.StateDone) {
		t.Fatalf("resubmitted job: %q (err %q, problems %v)", v3.State, v3.Error, v3.Problems)
	}
	if text2 := datasetText(t, srv2.URL, "key-r1", v3.DatasetID); text2 != text1 {
		t.Errorf("mapping drifted across drain+restart:\n--- before ---\n%s\n--- after ---\n%s", text1, text2)
	}
}

// TestJobSpansRecorded wires a tracer through StartJobs and checks the
// job span with per-file children lands for a real anonymization run.
func TestJobSpansRecorded(t *testing.T) {
	tr := trace.NewTracer()
	store := NewStore()
	store.SetTracer(tr)
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	corpus := jobTestCorpus("traced", 3)
	resp, sub := submitJob(t, srv.URL, "traced", "owner-secret", corpus)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v := pollJob(t, srv.URL, sub.JobID, sub.JobToken); v.State != string(jobs.StateDone) {
		t.Fatalf("job: %q (err %q, problems %v)", v.State, v.Error, v.Problems)
	}
	var jobSpan *trace.Span
	fileChildren := 0
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindJob {
			jobSpan = sp
		}
	}
	if jobSpan == nil {
		t.Fatal("no job span recorded")
	}
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindFile && sp.Parent == jobSpan.ID {
			fileChildren++
		}
	}
	if fileChildren != len(corpus) {
		t.Fatalf("job span has %d file children, want %d", fileChildren, len(corpus))
	}
	if jobSpan.Attr("state") != "done" || jobSpan.Status != trace.StatusOK {
		t.Fatalf("job span state=%q status=%q", jobSpan.Attr("state"), jobSpan.Status)
	}
}

// TestJobSubmitValidationErrors walks POST /jobs through every refusal
// that is not overload: queue not started (503), malformed JSON and
// oversized bodies, missing files/salt (400), and shape limits (422) —
// the same validation contract as the synchronous raw upload.
func TestJobSubmitValidationErrors(t *testing.T) {
	post := func(url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Before StartJobs the endpoint is 503 with a Retry-After, and the
	// poll/cancel endpoints refuse too.
	bare := NewStore()
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	if resp := post(bareSrv.URL, `{}`); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit without queue: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _ := getJob(t, bareSrv.URL, "nope", "tok"); code != http.StatusServiceUnavailable {
		t.Fatalf("status without queue: %d", code)
	}

	store := NewStore()
	limits := DefaultLimits()
	limits.MaxFiles = 2
	limits.MaxBodyBytes = 4096
	store.SetLimits(limits)
	if err := store.StartJobs(jobs.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"salt": `, http.StatusBadRequest},
		{"no files", `{"salt":"s","files":{}}`, http.StatusBadRequest},
		{"no salt", `{"files":{"r1-confg":"hostname r1\n"}}`, http.StatusBadRequest},
		{"too many files", `{"salt":"s","files":{"a":"x","b":"x","c":"x"}}`, http.StatusUnprocessableEntity},
		{"body too large", `{"salt":"s","files":{"a":"` + strings.Repeat("x", 8192) + `"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if resp := post(srv.URL, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
