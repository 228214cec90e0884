package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHealthz(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]interface{}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
}

func TestRecoveryMiddlewareTurnsPanicInto500(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := withRecovery(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(logBuf.String(), "handler exploded") {
		t.Errorf("panic not logged: %q", logBuf.String())
	}
}

func TestLoggingMiddlewareOmitsQueryString(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := withLogging(logger, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/datasets/d1/comments?owner_token=SECRET", nil))
	line := logBuf.String()
	if !strings.Contains(line, "418") || !strings.Contains(line, "/datasets/d1/comments") {
		t.Errorf("log line incomplete: %q", line)
	}
	if strings.Contains(line, "SECRET") {
		t.Errorf("owner token leaked into the request log: %q", line)
	}
}

func TestUploadCopiesFilesMap(t *testing.T) {
	s := NewStore()
	files := map[string]string{"f1": "hostname a1b2\n"}
	id, _, problems := s.Upload("d", files)
	if len(problems) != 0 {
		t.Fatal(problems)
	}
	files["f1"] = "! MUTATED AFTER UPLOAD\n"
	files["f2"] = "! SMUGGLED\n"
	d, ok := s.Dataset(id)
	if !ok {
		t.Fatal("dataset lost")
	}
	if d.Files["f1"] != "hostname a1b2\n" || len(d.Files) != 1 {
		t.Errorf("stored dataset aliases the caller's map: %+v", d.Files)
	}
}

func TestUploadEnforcesShapeLimits(t *testing.T) {
	s := NewStore()
	s.SetLimits(Limits{MaxFiles: 2, MaxFileBytes: 64, MaxTotalBytes: 100})

	if _, _, problems := s.Upload("too-many", map[string]string{
		"a": "x", "b": "x", "c": "x",
	}); len(problems) == 0 {
		t.Error("file-count cap not enforced")
	}
	if _, _, problems := s.Upload("too-big", map[string]string{
		"a": strings.Repeat("y", 65),
	}); len(problems) == 0 {
		t.Error("per-file cap not enforced")
	}
	if _, _, problems := s.Upload("too-much", map[string]string{
		"a": strings.Repeat("y", 60), "b": strings.Repeat("y", 60),
	}); len(problems) == 0 {
		t.Error("total-bytes cap not enforced")
	}
}

func TestScreenBudgetFailsClosed(t *testing.T) {
	// A dataset that blows the scan budget is rejected, not accepted
	// half-screened.
	clean := "hostname a1b2\ninterface Serial0\n ip address 12.1.1.1 255.255.255.252\n"
	big := map[string]string{"f": strings.Repeat(clean, 100)}
	if problems := ScreenLimited(big, 64); len(problems) == 0 {
		t.Fatal("over-budget dataset accepted")
	} else if !strings.Contains(problems[0], "budget") {
		t.Errorf("unexpected problem: %v", problems)
	}
	if problems := ScreenLimited(big, 0); len(problems) != 0 {
		t.Errorf("unlimited budget rejected a clean dataset: %v", problems)
	}
}

func TestUploadBodyCapReturns413(t *testing.T) {
	s := NewStore()
	s.SetSlogger(discardLogger())
	s.SetLimits(Limits{MaxBodyBytes: 256})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(uploadRequest{
		Label: "big",
		Files: map[string]string{"f": strings.Repeat("z", 1024)},
	})
	resp, err := http.Post(srv.URL+"/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestCommentLengthCapReturns413(t *testing.T) {
	s, srv := newTestPortal()
	defer srv.Close()
	l := DefaultLimits()
	l.MaxCommentBytes = 16
	s.SetLimits(l)

	files := anonymizedFiles(t)
	id, tok, problems := s.Upload("d", files)
	if len(problems) != 0 {
		t.Fatal(problems)
	}
	r := postJSON(t, srv.URL+"/datasets/"+id+"/comments",
		commentRequest{Text: strings.Repeat("a", 64), OwnerToken: tok}, nil)
	defer r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", r.StatusCode)
	}
}

func TestOwnerTokenAuth(t *testing.T) {
	s, srv := newTestPortal()
	defer srv.Close()
	files := anonymizedFiles(t)
	id, tok, _ := s.Upload("d", files)

	cases := []struct {
		token string
		want  int
	}{
		{tok, http.StatusOK},
		{tok + "x", http.StatusUnauthorized},
		{"", http.StatusUnauthorized},
	}
	for _, c := range cases {
		r := getWithKey(t, srv.URL+"/datasets/"+id+"/comments?owner_token="+c.token, "")
		if r.StatusCode != c.want {
			t.Errorf("owner_token %q: status %d, want %d", c.token, r.StatusCode, c.want)
		}
		r.Body.Close()
	}
}

func TestTokenEqual(t *testing.T) {
	if tokenEqual("", "") || tokenEqual("", "x") || tokenEqual("x", "") {
		t.Error("empty secrets must never match")
	}
	if !tokenEqual("abc", "abc") || tokenEqual("abc", "abd") {
		t.Error("comparison wrong")
	}
}

func TestNewServerHasTimeouts(t *testing.T) {
	srv := NewServer(":0", http.NewServeMux())
	if srv.ReadHeaderTimeout == 0 || srv.ReadTimeout == 0 || srv.WriteTimeout == 0 || srv.IdleTimeout == 0 {
		t.Errorf("server leaves a connection phase unbounded: %+v", srv)
	}
}

func TestRunShutsDownGracefully(t *testing.T) {
	srv := NewServer("127.0.0.1:0", http.NewServeMux())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, srv, time.Second) }()
	time.Sleep(50 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestRunSurfacesListenError(t *testing.T) {
	srv := NewServer("256.0.0.1:bad", http.NewServeMux())
	err := Run(context.Background(), srv, time.Second)
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("listen failure not surfaced: %v", err)
	}
}

func TestHandlerSurvivesPanickingRoute(t *testing.T) {
	// End-to-end: a panic inside the portal's own handler chain must
	// come back as a 500, and the server must keep serving afterwards.
	s := NewStore()
	s.SetSlogger(discardLogger())
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("GET /explode", func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
	srv := httptest.NewServer(withRecovery(s.slog(), mux))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/explode")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route status %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portal dead after panic: %d", resp.StatusCode)
	}
}
