package retry

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"
)

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(func() error {
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
	if err := Do(func() error { calls++; return perm }); !errors.Is(err, perm) {
		t.Fatalf("Do: %v, want %v", err, perm)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(func() error { calls++; return syscall.EBUSY })
	if !errors.Is(err, syscall.EBUSY) {
		t.Fatalf("Do: %v, want EBUSY", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

// TestDelayJitterBounded: the wait doubles from 50ms per failed attempt,
// plus at most half of it again.
func TestDelayJitterBounded(t *testing.T) {
	for attempt, base := range map[int]time.Duration{1: 50 * time.Millisecond, 2: 100 * time.Millisecond} {
		for i := 0; i < 100; i++ {
			if d := delay(attempt); d < base || d > base*3/2 {
				t.Fatalf("delay(%d) = %v outside [%v,%v]", attempt, d, base, base*3/2)
			}
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
