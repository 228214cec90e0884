package anonymizer

import (
	"strings"
	"time"

	"confanon/internal/token"
	"confanon/internal/trace"
)

// The engine owns line iteration, token segmentation, and per-rule
// instrumentation. One file flows through runLines, which reads the
// clock once per call, not per line: the rules count their hits as the
// lines run, and the call's elapsed wall time is split across the hits
// counted during the call (one share per hit, so when any rule fired
// the per-rule times in Stats sum to the rewrite stage's time to within
// a nanosecond per hit). Each line flows through runLine and passes
// through three phases:
//
//  1. structural rules — banner bodies and JunOS comment state, which
//     span lines and run before (or instead of) tokenized dispatch;
//  2. the keyed line-rule dispatch table (rule.go), in dispatch order;
//  3. the generic word pass (rules_generic.go), where the token-scoped
//     rules (segmentation, IP pairs, bare communities) fire.

// fileState carries cross-line context through one file.
type fileState struct {
	inBanner       bool
	bannerDelim    byte
	inBlockComment bool   // inside a JunOS /* ... */ block
	block          string // current top-level block: "interface", "router bgp", ...
}

// runLines is the engine's one line loop. It drives a file's lines,
// read through next (which reports false when the file is exhausted),
// from a fresh cross-line state, and hands every line's outcome to emit:
// its rewrite, and whether the rewrite is kept. It counts the file and
// times the rewrite stage.
func (a *Anonymizer) runLines(next func() (string, bool), emit func(res string, keep bool)) {
	a.stats.Files++
	a.curLine = 0
	st := &fileState{}
	before := a.stats.ruleHits
	t0 := time.Now()
	for {
		line, ok := next()
		if !ok {
			break
		}
		emit(a.runLine(line, st))
	}
	d := time.Since(t0)
	a.attribute(&before, d)
	a.curLine = 0
	a.observeStage(stageRewrite, d)
}

// rewrite anonymizes one whole file's text (AnonymizeText,
// SafeAnonymizeText, the shaped tree's StreamText) in the worker's own
// Template. Under StatelessIP every line maps straight through the line
// loop. Under the shaped tree the file runs census → replay → fill
// (template.go); a census that fails fails the rewrite at its line,
// once what it mapped has been replayed.
func (a *Anonymizer) rewrite(text string) (string, error) {
	t := a.ownTemplate(a.curFile)
	if a.opts.StatelessIP {
		a.runText(&t.out, text)
		return fileText(t.out), nil
	}
	a.census(t, text)
	t.pins.Replay(a.ip)
	t.calls.Replay(a.ip)
	return a.fill(t)
}

// runText runs every line of a file's text through the line loop and
// appends each kept line, with its newline, to *dst as it is kept (a
// census places a line's holes at the length *dst has before it).
func (a *Anonymizer) runText(dst *[]byte, text string) {
	rest := text
	a.runLines(
		func() (string, bool) {
			if rest == "" {
				return "", false
			}
			line, after, _ := strings.Cut(rest, "\n")
			rest = after
			return line, true
		},
		func(res string, keep bool) {
			if keep {
				*dst = append(append(*dst, res...), '\n')
			}
		})
}

// fileText is a file's output from runText's lines: "\n" when no line
// was kept.
func fileText(out []byte) string {
	if len(out) == 0 {
		return "\n"
	}
	return string(out)
}

// SplitLines splits file text exactly the way the engine iterates it:
// on newlines, with the empty artifact after a trailing newline dropped.
func SplitLines(text string) []string {
	lines := strings.Split(text, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// runLine processes one line (untimed: runLines times the whole call).
func (a *Anonymizer) runLine(line string, st *fileState) (string, bool) {
	a.stats.Lines++
	a.curLine++
	a.curRule = ""
	if faultHook != nil {
		faultHook(a.curFile, a.curLine)
	}
	res, keep := a.processLine(line, st)
	if a.tmpl != nil {
		a.tmpl.endLine(res, keep, &a.ctx, a.curLine)
	}
	if !keep && a.tracer != nil {
		// A dropped line is one decision: the comment/banner rule that
		// removed it, with no replacement to record.
		a.decide(trace.ClassDropped, "")
	}
	return res, keep
}

// attribute splits an elapsed duration across the rule hits counted
// since before, a copy of the hit counters taken when the timed call
// began: one share per hit, the remainder of the division dropped.
func (a *Anonymizer) attribute(before *[maxRules]int64, d time.Duration) {
	var n int64
	for i, b := range before {
		n += a.stats.ruleHits[i] - b
	}
	if n == 0 {
		return
	}
	share := int64(d) / n
	for i, b := range before {
		a.stats.ruleTimeNs[i] += share * (a.stats.ruleHits[i] - b)
	}
}

// processLine is the per-line pipeline: structural rules, keyed dispatch,
// then the generic word pass. It tokenizes into the worker's buffers
// (Anonymizer.tok), so a line's words, gaps and generic-pass cores are
// valid only until the next line starts; only the returned line, a
// fresh string, outlives it.
func (a *Anonymizer) processLine(line string, st *fileState) (string, bool) {
	// C1: banner bodies are comments; strip every content line.
	if st.inBanner {
		if strings.IndexByte(line, st.bannerDelim) >= 0 {
			st.inBanner = false
			return string(st.bannerDelim), true
		}
		a.hit(RuleBanner)
		a.stats.CommentLinesRemoved++
		// Banner bodies bypass the tokenizer, so their words are
		// counted into the total here.
		n := int64(token.CountFields(line))
		a.stats.CommentWordsRemoved += n
		a.stats.WordsTotal += n
		if a.stripComments() {
			return "", false
		}
		return line, true
	}

	// words and gaps live in the worker's token buffer: valid until the
	// next line, which is when the census has placed this line's holes
	// (Template.endLine) and the dispatch context is overwritten.
	var words, gaps []string
	words, gaps, a.tok = token.AppendFields(a.tok[:0], line)
	a.stats.WordsTotal += int64(len(words))

	// JunOS comment syntax ("# ...", "/* ... */") is stripped like IOS
	// comments; block comments span lines.
	if res, keep, handled := a.junosCommentRules(line, words, st); handled || st.inBlockComment {
		return res, keep
	}
	if len(words) == 0 {
		return line, true
	}

	// Track the current block for context-dependent rules.
	indented := gaps[0] != ""
	if !indented {
		st.block = blockOf(words)
	}

	c := &a.ctx
	c.raw, c.words, c.gaps, c.st = line, words, gaps, st
	if a.lineShield != nil {
		clear(a.lineShield) // pack-rule outputs shield one line only
	}
	if out, keep, consumed := a.dispatchLine(c); consumed {
		return out, keep
	}

	// Generic word-level pass (IP addresses, prefixes, communities,
	// pass-list hashing) over whatever no line rule consumed.
	a.genericWords(words, st)
	return token.Join(words, gaps), true
}

func blockOf(words []string) string {
	if len(words) >= 2 && words[0] == "router" {
		return "router " + words[1]
	}
	if len(words) >= 1 {
		return words[0]
	}
	return ""
}
