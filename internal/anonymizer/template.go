package anonymizer

import (
	"errors"
	"strings"
	"time"

	"confanon/internal/ipanon"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// The census template. The shaped tree maps an address according to
// which addresses reached it first, so a parallel corpus run cannot let
// its workers map addresses as they meet them. It runs every file once
// through the engine on throwaway state, against a recording mapper (a
// census); replays the recorded calls serially into the shared tree, in
// the order a serial run would make them; and then fills in each file's
// addresses from the resolved tree. The engine never runs twice on a
// file: the census keeps everything the file's rewrite would have
// produced, with each rendered address left as a hole, and the fill
// completes it.
//
// Holes are positions the engine records as it renders each address
// into its word slot (renderIP), never marker bytes in the text, which
// input could forge. At the end of a line the census places the line's
// holes by walking the words and gaps the output line was joined from.
// Every built-in rule that renders an address joins its line that way;
// a line that was not — a rule that assembled its output some other way
// — cannot have its holes placed, and the fill then fails the file
// closed rather than publish an address it cannot place. Every other
// lookup the fill makes — a hole, a decision's replacement, a call
// whose original the recorder keeps — reads the image the replay kept
// (Trace.Resolve).

// A Template is what one file's census pass keeps for the fill.
type Template struct {
	name string
	// calls is the file's mapper-call log, prescan first; pins counts
	// the prescan's calls (-1 until the prescan completes).
	calls *ipanon.Trace
	pins  int
	// err is the pass's failure; inPrescan marks one that struck before
	// the prescan completed, where a serial run stops before its rewrite.
	err       *FileError
	inPrescan bool

	// out is the output with each address rendered as the census
	// mapper's stand-in; holes lists where, in order. size is the length
	// of out's lines emitted so far, while the census runs.
	out   string
	size  int
	holes []hole

	stats       Stats
	words, asns map[string]bool
	stages      []stageTime
	// decisions are the buffered provenance decisions when the Session
	// is traced; decHoles are their IP replacements still to fill.
	decisions []trace.Decision
	decHoles  []decHole

	// line holds the current line's holes until the line is placed;
	// unplaced is the first line whose holes could not all be placed
	// (0 when every line's were).
	line     []lineHole
	unplaced int
}

// hole marks n bytes of Template.out, at pos, that stand for the image
// of mapper call call. A census keeps one per rendered address until
// its fill, so n and call are 32 bits: n is at most an address's
// length, and a file with 2^31 mapper calls could not be held.
type hole struct {
	pos     int
	n, call int32
}

// decHole marks decision dec's replacement as call's image plus suffix.
type decHole struct {
	dec, call int
	suffix    string
}

// stageTime is one stage duration the census measured.
type stageTime struct {
	stage string
	d     time.Duration
}

// lineHole is a hole on the line in flight: the word slot the address
// was rendered into, its offset within that word, the rendered text and
// the length of its address part.
type lineHole struct {
	slot   *string
	off, n int
	call   int
	text   string
}

// Census runs one file's only engine pass, on throwaway state: a
// pooled census worker shares this Session's Program and sensitive
// tokens, maps through a fresh recording ipanon.Trace, and keeps its
// output, Stats, recorder entries, stage times and (when the Session is
// traced) decisions in the returned Template instead of committing them.
// It emits no spans and pushes no metrics. Census touches only throwaway
// state, so any number of calls may run concurrently. A panic is
// recovered into the Template's error, with the call log truncated
// where the file died.
func (s *Session) Census(name, text string) (t *Template) {
	a, _ := s.census.Get().(*Anonymizer)
	if a == nil {
		a = s.newWorker()
		a.metrics = nil
	}
	tr := &ipanon.Trace{}
	a.ip, a.sensitiveTokens = tr, *s.sensTok.Load()
	// The Template keeps the recorder sets, so each file gets its own.
	a.seenWords, a.seenASNs = make(map[string]bool), make(map[string]bool)
	t = &Template{name: name, calls: tr, pins: -1}
	a.tmpl = t
	a.curFile, a.curLine = name, 0
	defer func() {
		if v := recover(); v != nil {
			t.err = &FileError{Name: name, Line: a.curLine, Cause: &PanicError{Value: v}}
			if t.pins < 0 {
				t.pins, t.inPrescan = tr.Len(), true
			}
		}
		t.stats, t.words, t.asns, t.decisions = a.stats, a.seenWords, a.seenASNs, a.pending
		t.line = nil
		a.stats, a.pending, a.tmpl, a.ip = Stats{}, nil, nil, nil
		s.census.Put(a)
	}()
	t.out = a.rewrite(text)
	return t
}

// Calls returns the file's mapper-call log, prescan included.
func (t *Template) Calls() *ipanon.Trace { return t.calls }

// Pins returns the prescan's part of the call log: the calls a serial
// run makes before it rewrites any file.
func (t *Template) Pins() *ipanon.Trace { return t.calls.Prefix(t.pins) }

// PinErr returns the census failure when it struck in the prescan (a
// serial run fails such a file before rewriting anything), nil
// otherwise.
func (t *Template) PinErr() *FileError {
	if t.inPrescan {
		return t.err
	}
	return nil
}

// hole notes the address just rendered into the word slot w: n bytes of
// text, the image of the call just made. A slot rendered twice keeps its
// last rendering.
func (t *Template) hole(w *string, n int, text string) {
	h := lineHole{slot: w, n: n, call: t.calls.Len() - 1, text: text}
	for k := range t.line {
		if t.line[k].slot == w {
			t.line[k] = h
			return
		}
	}
	t.line = append(t.line, h)
}

// decisionHole notes that decision dec's replacement is the image of
// the call just made, followed by suffix.
func (t *Template) decisionHole(dec int, suffix string) {
	t.decHoles = append(t.decHoles, decHole{dec: dec, call: t.calls.Len() - 1, suffix: suffix})
}

// moveHoles follows genericWords reassembling words from punctuation-
// stripped cores: a hole rendered into cores[i] now sits in words[i],
// after leads[i].
func (t *Template) moveHoles(cores, words, leads []string) {
	for k := range t.line {
		h := &t.line[k]
		for i := range cores {
			if h.slot == &cores[i] {
				h.slot, h.off = &words[i], h.off+len(leads[i])
				break
			}
		}
	}
}

// endLine closes the census of line n: a kept line's holes are placed
// in the output, and the line is counted into it.
func (t *Template) endLine(res string, keep bool, c *lineCtx, n int) {
	if len(t.line) > 0 {
		if keep && !t.place(res, c.words, c.gaps) && t.unplaced == 0 {
			t.unplaced = n
		}
		t.line = t.line[:0]
	}
	if keep {
		t.size += len(res) + 1
	}
}

// place locates the line's holes in res, which must be token.Join of
// words and gaps with every hole's text still at its slot and offset.
// It reports false when res is not that join or a hole is not found.
func (t *Template) place(res string, words, gaps []string) bool {
	if len(gaps) != len(words)+1 {
		return false
	}
	pos, placed := 0, 0
	for i, w := range words {
		if w == "" {
			continue // Join drops an empty word with its gap
		}
		if !strings.HasPrefix(res[pos:], gaps[i]) {
			return false
		}
		pos += len(gaps[i])
		if !strings.HasPrefix(res[pos:], w) {
			return false
		}
		for _, h := range t.line {
			if h.slot == &words[i] {
				if h.off > len(w) || !strings.HasPrefix(w[h.off:], h.text) {
					return false
				}
				t.holes = append(t.holes, hole{pos: t.size + pos + h.off, n: int32(h.n), call: int32(h.call)})
				placed++
			}
		}
		pos += len(w)
	}
	return placed == len(t.line) && res[pos:] == gaps[len(gaps)-1]
}

// errUnplaced is the cause a fill fails with when its census could not
// place every address hole in the output.
var errUnplaced = errors.New("census: an address could not be placed in the output line")

// SafeFill completes a file from its census Template, once the
// template's call log has been replayed into this worker's Session, as
// one fail-closed "rewrite" unit: it adds the census's Stats and stage
// times, publishes its recorder entries — recording the original of
// each call past the prescan whose image differs — fills every hole
// from the images the replay kept, publishes the decisions and commits.
// A template whose census failed fails here with the census's
// FileError, after publishing what the census recorded before it died,
// as a failed rewrite does; so does a template whose holes could not
// all be placed, with errUnplaced at the first such line.
func (a *Anonymizer) SafeFill(t *Template) (out string, ferr *FileError) {
	ferr = a.unit(t.name, "rewrite", func() error {
		a.stats = t.stats
		for _, st := range t.stages {
			a.observeStage(st.stage, st.d)
		}
		for w := range t.words {
			a.seenWords[w] = true
		}
		for v := range t.asns {
			a.seenASNs[v] = true
		}
		for i := t.pins; i < t.calls.Len(); i++ {
			if in := t.calls.In(i); t.calls.Resolve(i, a.ip) != in {
				a.seenIPs[in] = true
			}
		}
		if t.err != nil {
			a.curLine = t.err.Line
			return t.err.Cause
		}
		if t.unplaced > 0 {
			a.curLine = t.unplaced
			return errUnplaced
		}
		out = a.fillHoles(t)
		if a.tracer != nil {
			a.fillDecisions(t)
		}
		return nil
	})
	return out, ferr
}

// fillHoles writes every hole's image into the template's output.
func (a *Anonymizer) fillHoles(t *Template) string {
	var b strings.Builder
	b.Grow(len(t.out) + 8*len(t.holes))
	var ip [15]byte
	prev := 0
	for _, h := range t.holes {
		b.WriteString(t.out[prev:h.pos])
		b.Write(token.AppendIPv4(ip[:0], t.calls.Resolve(int(h.call), a.ip)))
		prev = h.pos + int(h.n)
	}
	b.WriteString(t.out[prev:])
	return b.String()
}

// fillDecisions completes the census's decisions — each IP decision's
// replacement, every decision's file span — and buffers them for the
// unit to publish.
func (a *Anonymizer) fillDecisions(t *Template) {
	for _, h := range t.decHoles {
		t.decisions[h.dec].Out = token.FormatIPv4(t.calls.Resolve(h.call, a.ip)) + h.suffix
	}
	var span trace.SpanID
	if a.fileSpan != nil {
		span = a.fileSpan.ID
	}
	for i := range t.decisions {
		t.decisions[i].Span = span
	}
	a.pending = append(a.pending, t.decisions...)
}
