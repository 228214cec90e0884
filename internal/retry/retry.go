// Package retry is the repository's one backoff implementation: one
// fixed schedule of three tries with jittered exponential backoff
// between them, retrying only errors the Transient classifier accepts.
// It began life inline in cmd/confanon (transient-I/O retries around
// file reads and writes) and was extracted so the same schedule protects
// every layer that touches the outside world: CLI file I/O, the mapping
// ledger's fsync/remove calls, and the job queue's record reads.
//
// The classifier is deliberately narrow. Retrying is only sound
// for failures a short wait can outlive — interrupted syscalls,
// exhausted descriptors, busy devices. Errors that retrying cannot fix
// (missing files, permissions, corrupt data, full disks) surface
// immediately: masking them behind backoff would turn a hard fault into
// a slow one.
package retry

import (
	"errors"
	"math/rand"
	"syscall"
	"time"
)

// attempts is how many times Do runs op at most, the first try included.
const attempts = 3

// delay returns the wait after the given 1-based failed attempt: 50ms,
// doubled per prior failure, plus up to half of that again drawn
// uniformly, which decorrelates retry storms across callers.
func delay(attempt int) time.Duration {
	d := 50 * time.Millisecond << (attempt - 1)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Do runs op, retrying while its error is Transient and attempts remain;
// any other error returns at once. It returns op's last error.
func Do(op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !Transient(err) || attempt == attempts {
			return err
		}
		time.Sleep(delay(attempt))
	}
}

// Transient reports whether err looks like a failure a short backoff can
// outlive: interrupted or rate-limited syscalls, exhausted descriptor
// tables, busy devices, timeouts. Everything else — including ENOSPC,
// which a short wait does not fix — is permanent.
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
