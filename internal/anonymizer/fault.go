package anonymizer

import (
	"fmt"
	"time"
)

// FileError describes the failure of one file inside a batch. The paper's
// threat model makes anonymization failures catastrophic, so the batch
// APIs are fail-closed: a file that cannot be processed is reported as a
// FileError and withheld, never half-emitted — and one poisoned file must
// not take the rest of the corpus down with it. Name is the batch key of
// the file, Line the 1-based line being processed when the failure struck
// (0 when the failure preceded line processing, e.g. during input
// reading), and Cause the underlying error; a recovered panic is
// wrapped as a PanicError.
type FileError struct {
	Name  string
	Line  int
	Cause error
}

// Error formats the failure for the operator.
func (e *FileError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("file %s: line %d: %v", e.Name, e.Line, e.Cause)
	}
	return fmt.Sprintf("file %s: %v", e.Name, e.Cause)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *FileError) Unwrap() error { return e.Cause }

// PanicError is the cause recorded when per-file recovery caught a panic.
type PanicError struct {
	Value interface{}
}

// Error formats the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// faultHook, when set, is invoked before each line the engine rewrites,
// with the file name and 1-based line number. It exists so chaos tests
// can inject panics at a precise point; production code never sets it.
// Guarded by no lock: set it only from tests that own the process.
var faultHook func(name string, line int)

// SetFaultHook installs (or, with nil, removes) the chaos-testing hook.
// The package lives under internal/, so only this repository's tests can
// reach it.
func SetFaultHook(h func(name string, line int)) { faultHook = h }

// unit runs one per-file entry — a rewrite, fill, prescan, stream or
// leak report — as the engine's single unit of commit. The
// worker's Stats hold only the file in flight: body counts into them,
// and when it returns the unit either commits the file or drops it.
//
// On success the file's Stats are added to the Session (a positive add,
// so every counter a registry reads from the Session only ever grows),
// its buffered provenance decisions are published, and the mapping
// ledger commits. On failure — body's error, or a panic recovered into a
// *PanicError carrying the 1-based line the engine was on — the file's
// Stats and decisions are dropped and nothing is committed, so batch
// Stats describe only files that completed and a failed file leaves no
// partial ledger records. Either way the leak recorder flushes: the
// mapping state an aborted file touched only ever adds recorder entries,
// so it can widen later leak reports, never narrow them.
//
// op names the file span ("prescan", "rewrite", "stream"); the
// fail-open entries pass "" and open none.
func (a *Anonymizer) unit(name, op string, body func() error) (ferr *FileError) {
	a.curFile, a.curLine = name, 0
	a.beginFileSpan(name, op)
	defer func() {
		if v := recover(); v != nil {
			ferr = &FileError{Name: name, Line: a.curLine, Cause: &PanicError{Value: v}}
		}
		if ferr != nil {
			a.flushRecorder()
			a.endFile(ferr)
		}
	}()
	if err := body(); err != nil {
		return &FileError{Name: name, Line: a.curLine, Cause: err}
	}
	// The ledger commit runs inside the recovered region: a crash there
	// fails the file like any other fault.
	a.flushRecorder()
	a.sess.commitLedger()
	a.endFile(nil)
	return nil
}

// endFile closes a unit: the file's Stats reach the Session only when it
// committed (ferr nil), and the worker's Stats are cleared for the next
// file either way.
func (a *Anonymizer) endFile(ferr *FileError) {
	if ferr == nil {
		a.sess.stats.add(&a.stats)
	}
	a.stats = Stats{}
	a.endFileSpan(ferr)
}

// failOpen turns the result of a fail-open entry's unit (AnonymizeText,
// StreamText, LeakReport) back into that entry's contract: a
// recovered panic panics again — the file's counts are already dropped —
// and an I/O error is returned as is.
func failOpen(ferr *FileError) error {
	if ferr == nil {
		return nil
	}
	if pe, ok := ferr.Cause.(*PanicError); ok {
		panic(pe.Value)
	}
	return ferr.Cause
}

// SafeAnonymizeText anonymizes one file like AnonymizeText but fails
// closed instead of failing open: a panic anywhere in the rewrite
// becomes a *FileError and the file is dropped (see unit), so a batch
// caller can report the file and carry on.
func (a *Anonymizer) SafeAnonymizeText(name, text string) (out string, ferr *FileError) {
	ferr = a.unit(name, "rewrite", func() (err error) {
		out, err = a.rewrite(text)
		return err
	})
	return out, ferr
}

// SafePrescan pins one file's subnets into the Session's mapping ahead
// of any rewrite, as a fail-closed unit like SafeAnonymizeText: it
// censuses the file on throwaway state (Session.Census) and replays the
// census's pins, the prefixes the file's rewrite maps, shortest first
// (§4.3). Pinning every file of a network first keeps cross-file
// orderings from breaking the shaping, as a corpus run does. A census
// that fails still replays the pins it recorded, and fails the unit
// with its cause at its line. Under StatelessIP pins change no byte,
// and SafePrescan does nothing.
func (a *Anonymizer) SafePrescan(name, text string) *FileError {
	return a.unit(name, "prescan", func() error {
		if a.opts.StatelessIP {
			return nil
		}
		start := time.Now()
		t := a.sess.Census(name, text)
		t.pins.Replay(a.ip)
		a.observeStage(stagePrescan, time.Since(start))
		if t.err != nil {
			a.curLine = t.err.Line
			return t.err.Cause
		}
		return nil
	})
}
