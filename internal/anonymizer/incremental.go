package anonymizer

import "strings"

// Incremental re-anonymization support: the engine can record, per input
// line, everything a later run needs to resume a file mid-way — the
// output the line contributed, whether it was dropped, and the
// cross-line state (banner, block comment, block context) after it.
// A later run whose file shares a prefix of identical lines replays the
// cached outputs for the prefix and re-enters the engine at the first
// divergent line with the checkpointed state, producing output
// byte-identical to reprocessing the whole file (the prefix's state
// depends only on the prefix's lines, which are unchanged; the mapping
// of any address in the prefix is already resolved in the shared tree).

// ResumeState is the serializable image of the engine's cross-line
// fileState: the checkpoint a line cache stores after every line.
type ResumeState struct {
	InBanner       bool
	BannerDelim    byte
	InBlockComment bool
	Block          string
}

func exportState(st *fileState) ResumeState {
	return ResumeState{
		InBanner:       st.inBanner,
		BannerDelim:    st.bannerDelim,
		InBlockComment: st.inBlockComment,
		Block:          st.block,
	}
}

func importState(rs ResumeState) *fileState {
	return &fileState{
		inBanner:       rs.InBanner,
		bannerDelim:    rs.BannerDelim,
		inBlockComment: rs.InBlockComment,
		block:          rs.Block,
	}
}

// LineRecord is one line's entry in the incremental cache: the input
// line's content hash, the output it contributed (absent for a dropped
// line), and the resume checkpoint after it.
type LineRecord struct {
	Hash uint64
	Out  string
	Drop bool
	Next ResumeState
}

// LineHash returns the content hash the incremental differ compares
// lines by (FNV-64a; a cache hit on a colliding line would reuse a stale
// output, at odds of ~2^-64 per line against non-adversarial edits).
// It is hash/fnv's New64a written out, so hashing a line allocates
// nothing.
func LineHash(line string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(line); i++ {
		h ^= uint64(line[i])
		h *= prime64
	}
	return h
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

// JoinOutputs assembles kept output lines into file text (the inverse of
// the engine's emit sequence, shared by the full and resumed paths).
func JoinOutputs(outs []string) string {
	return strings.Join(outs, "\n") + "\n"
}

// SafeAnonymizeTail rewrites a file's lines from line number start as
// one fail-closed unit (see unit) and returns the kept outputs together
// with every line's LineRecord, which an incremental re-run diffs
// against. tail is the file's lines from start on and rs the checkpoint
// recorded after line start. At start 0 tail is the whole file: it is
// prescanned first, like SafeAnonymizeText, whose output JoinOutputs of
// the returned outs equals, and its span op is "rewrite". Past 0 it
// resumes the file at its first divergent line ("rewrite-tail"): no
// prescan runs — the caller's census/replay (shaped tree) or the
// salt-pure mapping (stateless) has already resolved every address the
// tail can reference — fault line numbers stay file-absolute, and the
// outs are only the tail's contributions, which the caller appends to
// the cached prefix outputs.
func (a *Anonymizer) SafeAnonymizeTail(name string, tail []string, start int, rs ResumeState) (outs []string, recs []LineRecord, ferr *FileError) {
	op := "rewrite-tail"
	if start == 0 {
		op = "rewrite"
	}
	ferr = a.unit(name, op, start, func() error {
		outs, recs = a.rewriteLines(tail, start, importState(rs), true)
		return nil
	})
	return outs, recs, ferr
}
