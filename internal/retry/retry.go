// Package retry is the repository's one backoff implementation: capped
// exponential backoff with jitter, context-aware, retrying only errors
// the Transient classifier accepts. It began life inline in cmd/confanon
// (transient-I/O retries around file reads and writes) and was extracted
// so the same policy protects every layer that touches the outside
// world: CLI file I/O, the mapping ledger's fsync/remove calls, and the
// job queue's record reads and writes.
//
// The classifier is deliberately narrow. Retrying is only sound
// for failures a short wait can outlive — interrupted syscalls,
// exhausted descriptors, busy devices. Errors that retrying cannot fix
// (missing files, permissions, corrupt data, full disks) surface
// immediately: masking them behind backoff would turn a hard fault into
// a slow one.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"syscall"
	"time"
)

// Policy describes one retry discipline. The zero value is usable: it
// behaves like Default (3 attempts, 50ms base doubling to a 2s cap, half
// a step of jitter, Transient classification).
type Policy struct {
	// Attempts is the total number of tries, including the first
	// (<=0 means 3).
	Attempts int
	// BaseDelay is the wait after the first failure; each further wait
	// doubles it (<=0 means 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (<=0 means 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay drawn uniformly at random and
	// added on top, decorrelating retry storms across callers (<0 means
	// 0.5; 0 is honored as no jitter when set explicitly via NoJitter).
	Jitter float64
}

// Default is the policy cmd/confanon has always used for transient file
// I/O — and now everything else uses too.
var Default = Policy{}

// noJitter marks a policy whose zero Jitter means "none" rather than
// "default"; see NoJitter.
const noJitter = -1

// NoJitter returns p with jitter disabled (for deterministic tests and
// for callers holding locks where random extra sleep is unwanted).
func (p Policy) NoJitter() Policy {
	p.Jitter = noJitter
	return p
}

func (p Policy) attempts() int {
	if p.Attempts <= 0 {
		return 3
	}
	return p.Attempts
}

func (p Policy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p Policy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter == noJitter:
		return 0
	case p.Jitter <= 0:
		return 0.5
	default:
		return p.Jitter
	}
}

// Delay returns the wait scheduled after the given 1-based failed
// attempt: BaseDelay doubled per prior failure, capped at MaxDelay, plus
// the jitter fraction drawn uniformly. Exposed so callers can compute a
// Retry-After from the same curve clients experience.
func (p Policy) Delay(attempt int) time.Duration {
	d := p.base()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.cap() {
			d = p.cap()
			break
		}
	}
	if j := p.jitter(); j > 0 {
		d += time.Duration(rand.Int63n(int64(float64(d)*j) + 1))
	}
	return d
}

// Do runs op, retrying per the policy while the error is Transient and
// attempts remain; any other error returns immediately. The wait between tries is context-aware:
// a cancelled ctx aborts the backoff immediately and returns ctx's error
// joined with the last op error, so callers see both why the op failed
// and why retrying stopped.
func (p Policy) Do(ctx context.Context, op func() error) error {
	attempts := p.attempts()
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || !Transient(err) {
			return err
		}
		if attempt >= attempts {
			return err
		}
		t := time.NewTimer(p.Delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return errors.Join(ctx.Err(), err)
		case <-t.C:
		}
	}
}

// Do runs op under the Default policy with a background context.
func Do(op func() error) error {
	return Default.Do(context.Background(), op)
}

// Transient reports whether err looks like a failure a short backoff can
// outlive: interrupted or rate-limited syscalls, exhausted descriptor
// tables, busy devices, timeouts. Everything else — including ENOSPC,
// which a 2-second wait does not fix — is permanent.
func Transient(err error) bool {
	for _, e := range []error{
		syscall.EINTR, syscall.EAGAIN, syscall.EBUSY,
		syscall.ENFILE, syscall.EMFILE, syscall.ETIMEDOUT,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
