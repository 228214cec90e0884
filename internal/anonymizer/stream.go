package anonymizer

import (
	"bufio"
	"io"

	"confanon/internal/token"
)

// StreamText anonymizes one configuration file from r to w.
//
// Under StatelessIP the IP mapping is a pure function of the salt, so the
// shortest-prefix-first prescan is a semantic no-op and the engine can
// rewrite each line as it is read — constant memory in the input size,
// byte-identical to AnonymizeText. Under the default shaped tree the
// prescan is load-bearing (the /8 must pin its tail before the /24s
// inside it resolve), so the file — one file, never a corpus — is
// buffered, prescanned, and then rewritten.
//
// One edge differs from AnonymizeText: a zero-byte input streams to zero
// bytes, where AnonymizeText returns "\n" (an artifact of its join).
//
// With a registry wired, the bytes read and written are added to the
// stream byte counters once per call, also when the file fails: they
// measure I/O work done, so a rollback does not take them back.
func (a *Anonymizer) StreamText(r io.Reader, w io.Writer) error {
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
		out := a.AnonymizeText(string(data))
		bytesIn += int64(len(data))
		bytesOut += int64(len(out))
		_, err = io.WriteString(w, out)
		return err
	}

	bw := bufio.NewWriter(w)
	sc := token.NewLineScanner(r)
	var werr error
	a.runFile(
		func() (string, bool) {
			if werr != nil || !sc.Scan() {
				return "", false
			}
			line := sc.Text()
			bytesIn += int64(len(line)) + 1
			return line, true
		},
		func(line string) {
			if werr != nil {
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
