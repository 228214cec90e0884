package portal

// This file is the hardened serving layer: middleware (panic recovery,
// request logging), an http.Server with timeouts on every phase of a
// connection, and a graceful-shutdown run loop. The §7 clearinghouse is
// the piece of the system exposed to the open Internet, so it gets the
// fail-closed treatment too: no naked listener, no unbounded read, no
// handler panic taking the process down.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// statusRecorder captures the status a handler wrote, for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// requestIDKey carries the per-request trace id through the context.
type requestIDKey struct{}

// RequestID returns the request's trace id ("" outside WithRequestID).
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// WithRequestID assigns every request a random trace id, stores it in
// the request context, and echoes it in the X-Request-Id response
// header — the same id the request log and the metrics exemplars carry,
// so one client-reported failure can be matched to its log line and its
// series annotation.
func WithRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic("portal: no entropy: " + err.Error())
		}
		id := hex.EncodeToString(b[:])
		w.Header().Set("X-Request-Id", id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// withLogging logs one structured line per request: request id,
// owner (principal, when non-nil, names the request's authenticated
// party; "-" for anonymous), route, status, duration, and remote
// address. Never the X-API-Key header or an owner token — query strings
// are deliberately omitted because owner tokens travel there.
func withLogging(logger *slog.Logger, principal func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		owner := "-"
		if principal != nil {
			owner = principal(r)
		}
		logger.Info("request",
			slog.String("request_id", RequestID(r)),
			slog.String("owner", owner),
			slog.String("route", r.Method+" "+r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start).Round(time.Microsecond)),
			slog.String("remote", r.RemoteAddr))
	})
}

// withRecovery converts a handler panic into a logged 500 response,
// so one malformed request cannot crash the portal or leave the client
// with a severed connection and no status. http.ErrAbortHandler keeps
// its special meaning and is re-panicked.
func withRecovery(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				logger.Error("panic serving request",
					slog.String("request_id", RequestID(r)),
					slog.String("route", r.Method+" "+r.URL.Path),
					slog.Any("panic", v),
					slog.String("stack", string(debug.Stack())))
				writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal error"})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// NewServer returns an http.Server for the portal with every connection
// phase bounded: a peer that stalls on headers, body, response read, or
// keep-alive idle is cut off instead of pinning a connection forever.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// Run serves srv until ctx is cancelled, then shuts down gracefully:
// in-flight requests get up to grace to finish before the listener's
// process exits. It returns nil on a clean shutdown, the listen error
// otherwise.
func Run(ctx context.Context, srv *http.Server, grace time.Duration) error {
	return RunWithDrain(ctx, srv, grace, 0, nil)
}

// RunWithDrain is Run with the load-balancer courtesy step in front of
// the shutdown: when ctx is cancelled it first calls onDrain (which
// should flip /readyz not-ready — Store.BeginDrain), then keeps serving
// for notice so balancers observe the not-ready answer and stop routing
// before the listener dies, and only then shuts the HTTP server down
// with grace for in-flight requests. Draining the job queue is the
// caller's next step, after this returns, so queued work is not racing a
// dying listener.
func RunWithDrain(ctx context.Context, srv *http.Server, grace, notice time.Duration, onDrain func()) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		// The listener failed before ctx did (bad address, port in use).
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	if notice > 0 {
		select {
		case err := <-errCh:
			return err
		case <-time.After(notice):
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
