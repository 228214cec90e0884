package anonymizer

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"confanon/internal/token"
)

// StreamText anonymizes one configuration file from r to w.
//
// Under StatelessIP the IP mapping is a pure function of the salt, so
// the order addresses reach it does not matter and the engine can
// rewrite each line as it is read — constant memory in the input size,
// byte-identical to AnonymizeText. Under the default shaped tree the
// order is load-bearing (the /8 must pin its tail before the /24s
// inside it resolve), so the file — one file, never a corpus — is
// buffered and runs census → replay → fill like AnonymizeText.
//
// One edge differs from AnonymizeText: a zero-byte input streams to zero
// bytes, where AnonymizeText returns "\n" (an artifact of its join).
//
// With a registry wired, the bytes read and written are added to the
// stream byte counters once per call, also when the file fails: they
// measure I/O work done, so a failed file does not take them back.
//
// StreamText is fail-open like AnonymizeText: a panic propagates, and an
// I/O error is returned. SafeStreamText is the fail-closed form.
func (a *Anonymizer) StreamText(r io.Reader, w io.Writer) error {
	return failOpen(a.unit("", "", func() error { return a.stream(r, w) }))
}

// SafeStreamText streams one file from r into the sink open returns, as
// one fail-closed unit (see unit): a panic, a failing reader, a sink that
// cannot be opened, and a writer that fails mid-file or on close each
// become the file's *FileError, and the file never reaches the
// Session's Stats. Without a gate the sink is opened first and the file
// streams straight through with StreamText's memory behavior (a mid-file
// failure can leave an output prefix at the sink — every emitted line
// was fully anonymized, and the FileError tells the caller to discard
// the remnant). With a gate the output is buffered and leak-reported
// before the sink is opened, and gate decides from the report: a non-nil
// result withholds the file — the sink is never opened and the result
// is returned as the file's FileError — while the file itself still
// commits, since it was processed to completion and only its
// publication was refused.
func (a *Anonymizer) SafeStreamText(name string, r io.Reader, open func() (io.WriteCloser, error), gate func([]Leak) error) *FileError {
	var withheld error
	ferr := a.unit(name, "stream", func() error {
		var buf *bytes.Buffer
		if gate != nil {
			buf = new(bytes.Buffer)
			if err := a.stream(r, buf); err != nil {
				return err
			}
			if withheld = gate(a.leakReport(buf.String())); withheld != nil {
				return nil
			}
		}
		w, err := open()
		if err != nil {
			return fmt.Errorf("opening sink: %w", err)
		}
		if gate != nil {
			_, err = w.Write(buf.Bytes())
		} else {
			err = a.stream(r, w)
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if ferr == nil && withheld != nil {
		ferr = &FileError{Name: name, Cause: withheld}
	}
	return ferr
}

// stream is StreamText's body.
func (a *Anonymizer) stream(r io.Reader, w io.Writer) error {
	var bytesIn, bytesOut int64
	if m := a.metrics; m != nil {
		defer func() {
			m.bytesIn.Add(bytesIn)
			m.bytesOut.Add(bytesOut)
		}()
	}
	if !a.opts.StatelessIP {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		out, err := a.rewrite(string(data))
		if err != nil {
			return err
		}
		bytesIn += int64(len(data))
		bytesOut += int64(len(out))
		_, err = io.WriteString(w, out)
		return err
	}

	bw := bufio.NewWriter(w)
	sc := token.NewLineScanner(r)
	var werr error
	a.runLines(
		func() (string, bool) {
			if werr != nil || !sc.Scan() {
				return "", false
			}
			line := sc.Text()
			bytesIn += int64(len(line)) + 1
			return line, true
		},
		func(line string, keep bool) {
			if werr != nil || !keep {
				return
			}
			bytesOut += int64(len(line)) + 1
			if _, err := bw.WriteString(line); err != nil {
				werr = err
				return
			}
			werr = bw.WriteByte('\n')
		},
	)
	if werr != nil {
		return werr
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
