package anonymizer

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSafeAnonymizeTextRecoversPanicWithLine(t *testing.T) {
	SetFaultHook(func(name string, line int) {
		if name == "poison" && line == 3 {
			panic("injected fault")
		}
	})
	defer SetFaultHook(nil)

	a := New(Options{Salt: []byte("s")})
	text := "hostname r1\ninterface Ethernet0\n ip address 10.1.1.1 255.255.255.0\n"

	out, ferr := a.SafeAnonymizeText("clean", text)
	if ferr != nil {
		t.Fatalf("clean file failed: %v", ferr)
	}
	if out == "" {
		t.Fatal("clean file produced no output")
	}

	if _, ferr = a.SafeAnonymizeText("poison", text); ferr == nil {
		t.Fatal("poisoned file did not report a FileError")
	}
	if ferr.Name != "poison" || ferr.Line != 3 {
		t.Errorf("FileError location = (%q, %d), want (poison, 3)", ferr.Name, ferr.Line)
	}
	var pe *PanicError
	if !errors.As(ferr, &pe) || pe.Value != "injected fault" {
		t.Errorf("cause %v is not the injected PanicError", ferr.Cause)
	}
	if !strings.Contains(ferr.Error(), "line 3") {
		t.Errorf("FileError string %q lacks the line", ferr.Error())
	}
}

func TestSafeAnonymizeTextRollsBackStats(t *testing.T) {
	SetFaultHook(func(name string, line int) {
		if name == "poison" && line == 2 {
			panic("boom")
		}
	})
	defer SetFaultHook(nil)

	a := New(Options{Salt: []byte("s")})
	text := "hostname r1\ninterface Ethernet0\n"
	if _, ferr := a.SafeAnonymizeText("ok", text); ferr != nil {
		t.Fatal(ferr)
	}
	before := a.Stats()
	if _, ferr := a.SafeAnonymizeText("poison", text); ferr == nil {
		t.Fatal("expected failure")
	}
	after := a.Stats()
	if after.Files != before.Files || after.Lines != before.Lines || after.WordsTotal != before.WordsTotal {
		t.Errorf("stats not rolled back: before %+v after %+v", before, after)
	}
	// The engine must still work after a rollback.
	out, ferr := a.SafeAnonymizeText("ok2", text)
	if ferr != nil || out == "" {
		t.Fatalf("anonymizer unusable after rollback: %q, %v", out, ferr)
	}
	if a.Stats().Files != before.Files+1 {
		t.Errorf("post-rollback file not counted")
	}
}

type failingReader struct {
	data string
	read bool
}

func (r *failingReader) Read(p []byte) (int, error) {
	if !r.read {
		r.read = true
		n := copy(p, r.data)
		return n, nil
	}
	return 0, errors.New("disk on fire")
}

func TestSafeStreamTextWrapsIOErrors(t *testing.T) {
	a := New(Options{Salt: []byte("s"), StatelessIP: true})
	var sb strings.Builder
	open := func() (io.WriteCloser, error) { return nopCloser{&sb}, nil }
	ferr := a.SafeStreamText("bad-disk", &failingReader{data: "hostname r1\n"}, open, nil)
	if ferr == nil {
		t.Fatal("reader failure not reported")
	}
	if ferr.Name != "bad-disk" || !strings.Contains(ferr.Error(), "disk on fire") {
		t.Errorf("unexpected FileError: %v", ferr)
	}
	if s := a.Stats(); s.Files != 0 || s.Lines != 0 {
		t.Errorf("failed stream reached the Session: files=%d lines=%d", s.Files, s.Lines)
	}
}

// nopCloser adapts a Writer into a sink that closes cleanly.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
