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
// which addresses reached it first, and §4.3 needs every prefix a file
// maps resolved shortest first, before the file's own order reaches it.
// So under the shaped tree no file is rewritten straight into the tree.
// Each file runs once through the engine against a recording mapper (a
// census), which keeps everything the rewrite would have produced, with
// each rendered address left as a hole, and the file's exact
// mapper-call log. The file's pins are the log's own prefix calls,
// shortest first (ipanon.Trace.Pins): exactly the prefixes the rewrite
// maps, and no text it does not publish. The pins and then the log are
// replayed into the tree, and the fill completes the holes from the
// images the replay kept. The engine never runs twice on a file.
//
// A single file runs census → replay → fill on the calling worker
// (rewrite, engine.go), against a Template the worker reuses. A corpus
// runs every file's census on throwaway state in parallel (Census),
// replays every file's pins in sorted-name order and then every file's
// log, serially, in the order a serial run would make them, and fills
// the files in parallel (SafeFill).
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
	// calls is the file's mapper-call log, pins its prefix calls,
	// shortest first: what replays into the tree before any file's log.
	calls, pins *ipanon.Trace
	// err is the pass's failure; the log stops where it struck.
	err *FileError

	// out is the output with each address rendered as the census
	// mapper's stand-in; holes lists where, in order.
	out   []byte
	holes []hole

	// stats, words, asns and decisions are what a Session's census
	// worker counted and recorded, for the fill to adopt (SafeFill); a
	// worker that fills its own census keeps them on itself instead.
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
// recovered into the Template's error, with the call log, and the pins
// taken from it, truncated where the file died.
func (s *Session) Census(name, text string) *Template {
	a, _ := s.census.Get().(*Anonymizer)
	if a == nil {
		a = s.newWorker()
		a.metrics = nil
	}
	a.sensitiveTokens = *s.sensTok.Load()
	// The Template keeps the recorder sets, so each file gets its own.
	a.seenWords, a.seenASNs = make(map[string]bool), make(map[string]bool)
	// An output runs a little shorter than its input: comments go.
	t := &Template{name: name, calls: &ipanon.Trace{}, out: make([]byte, 0, len(text))}
	a.curFile, a.curLine = name, 0
	a.census(t, text)
	t.stats, t.words, t.asns, t.decisions = a.stats, a.seenWords, a.seenASNs, a.pending
	a.stats, a.pending = Stats{}, nil
	s.census.Put(a)
	return t
}

// census runs text's one engine pass on this worker into t: the worker
// maps through t's call log and renders every address as a hole in t's
// output. What else the pass counts and records — Stats, recorder
// entries, decisions — stays on the worker. A panic is recovered into
// t's error at the line it struck. When the pass ends, t's pins are its
// log's prefix calls, shortest first.
func (a *Anonymizer) census(t *Template, text string) {
	ip := a.ip
	a.ip, a.tmpl = t.calls, t
	defer func() {
		if v := recover(); v != nil {
			t.err = &FileError{Name: t.name, Line: a.curLine, Cause: &PanicError{Value: v}}
		}
		a.ip, a.tmpl = ip, nil
		t.line = t.line[:0]
		t.pins = t.calls.Pins(t.pins)
	}()
	a.runText(&t.out, text)
}

// ownTemplate returns the Template this worker censuses its own files
// into, emptied for file name. Its call log, pins, output and scratch
// slices keep their storage from file to file.
func (a *Anonymizer) ownTemplate(name string) *Template {
	t := a.own
	if t == nil {
		t = &Template{calls: &ipanon.Trace{}, pins: &ipanon.Trace{}}
		a.own = t
	}
	*t = Template{
		name: name, calls: t.calls, pins: t.pins, out: t.out[:0],
		holes: t.holes[:0], stages: t.stages[:0], decHoles: t.decHoles[:0], line: t.line[:0],
	}
	t.calls.Reset()
	return t
}

// Calls returns the file's mapper-call log.
func (t *Template) Calls() *ipanon.Trace { return t.calls }

// Pins returns the file's pins: its log's prefix calls, shortest first,
// which a corpus run replays for every file before any file's log.
func (t *Template) Pins() *ipanon.Trace { return t.pins }

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
// in the output, which the line will extend (runText appends it next).
func (t *Template) endLine(res string, keep bool, c *lineCtx, n int) {
	if len(t.line) > 0 {
		if keep && !t.place(res, c.words, c.gaps) && t.unplaced == 0 {
			t.unplaced = n
		}
		t.line = t.line[:0]
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
				t.holes = append(t.holes, hole{pos: len(t.out) + pos + h.off, n: int32(h.n), call: int32(h.call)})
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

// SafeFill completes a file from a Session's census Template, once the
// template's pins and call log have been replayed into this worker's
// Session, as one fail-closed "rewrite" unit: it adopts the census's
// Stats, recorder entries and decisions, and then fills the file (see
// fill) and commits. A template whose census failed fails here with the
// census's FileError, after publishing what the census recorded before
// it died, as a failed rewrite does; so does a template whose holes
// could not all be placed, with errUnplaced at the first such line.
func (a *Anonymizer) SafeFill(t *Template) (out string, ferr *FileError) {
	ferr = a.unit(t.name, "rewrite", func() (err error) {
		a.stats = t.stats
		for w := range t.words {
			a.seenWords[w] = true
		}
		for v := range t.asns {
			a.seenASNs[v] = true
		}
		a.pending = append(a.pending, t.decisions...)
		out, err = a.fill(t)
		return err
	})
	return out, ferr
}

// fill completes a census whose pins and call log have been replayed
// into this worker's mapper: it observes the census's stage times,
// records the original of each call whose image differs, fills every
// hole from the images the replay kept and completes the decisions. It
// is the last step of both the shaped tree's rewrite and SafeFill, and
// fails like them: with the census's failure, or errUnplaced.
func (a *Anonymizer) fill(t *Template) (string, error) {
	for _, st := range t.stages {
		a.observeStage(st.stage, st.d)
	}
	for i := 0; i < t.calls.Len(); i++ {
		if in := t.calls.In(i); t.calls.Resolve(i, a.ip) != in {
			a.seenIPs[in] = true
		}
	}
	if t.err != nil {
		a.curLine = t.err.Line
		return "", t.err.Cause
	}
	if t.unplaced > 0 {
		a.curLine = t.unplaced
		return "", errUnplaced
	}
	out := a.fillHoles(t)
	if a.tracer != nil {
		a.fillDecisions(t)
	}
	return out, nil
}

// fillHoles writes every hole's image into the template's output.
func (a *Anonymizer) fillHoles(t *Template) string {
	if len(t.holes) == 0 {
		return fileText(t.out)
	}
	var b strings.Builder
	b.Grow(len(t.out) + 8*len(t.holes))
	var ip [15]byte
	prev := 0
	for _, h := range t.holes {
		b.Write(t.out[prev:h.pos])
		b.Write(token.AppendIPv4(ip[:0], t.calls.Resolve(int(h.call), a.ip)))
		prev = h.pos + int(h.n)
	}
	b.Write(t.out[prev:])
	return b.String()
}

// fillDecisions completes the census's decisions, which the unit has
// buffered from its start: each IP decision's replacement, and every
// decision's file span.
func (a *Anonymizer) fillDecisions(t *Template) {
	for _, h := range t.decHoles {
		a.pending[h.dec].Out = token.FormatIPv4(t.calls.Resolve(h.call, a.ip)) + h.suffix
	}
	var span trace.SpanID
	if a.fileSpan != nil {
		span = a.fileSpan.ID
	}
	for i := range a.pending {
		a.pending[i].Span = span
	}
}
