package retry

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"
)

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	calls := 0
	p := Policy{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}.NoJitter()
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", syscall.EINTR)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	calls := 0
	perm := errors.New("no such file")
	p := Policy{Attempts: 5, BaseDelay: time.Millisecond}.NoJitter()
	if err := p.Do(context.Background(), func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("Do: %v, want %v", err, perm)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	p := Policy{Attempts: 3, BaseDelay: time.Microsecond}.NoJitter()
	err := p.Do(context.Background(), func() error { calls++; return syscall.EBUSY })
	if !errors.Is(err, syscall.EBUSY) {
		t.Fatalf("Do: %v, want EBUSY", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestDoHonorsContextDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{Attempts: 3, BaseDelay: time.Hour}.NoJitter()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := p.Do(ctx, func() error { calls++; return syscall.EAGAIN })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do: %v, want context.Canceled", err)
	}
	if !errors.Is(err, syscall.EAGAIN) {
		t.Fatalf("joined error lost the op failure: %v", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times before cancellation, want 1", calls)
	}
}

func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}.NoJitter()
	want := []time.Duration{10, 20, 35, 35} // ms; doubling capped at MaxDelay
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDelayJitterBounded(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := p.Delay(1)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [100ms,150ms]", d)
		}
	}
}

func TestTransientClassification(t *testing.T) {
	for _, e := range []error{syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.ENFILE, syscall.EMFILE, syscall.ETIMEDOUT} {
		if !Transient(fmt.Errorf("wrapped: %w", e)) {
			t.Errorf("Transient(%v) = false, want true", e)
		}
	}
	for _, e := range []error{errors.New("parse error"), syscall.ENOSPC, syscall.ENOENT, nil} {
		if Transient(e) {
			t.Errorf("Transient(%v) = true, want false", e)
		}
	}
}

func TestPackageLevelDo(t *testing.T) {
	calls := 0
	if err := Do(func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Do ran op %d times, want 1", calls)
	}
}
