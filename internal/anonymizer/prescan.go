package anonymizer

import (
	"sort"
	"time"

	"confanon/internal/config"
	"confanon/internal/token"
)

// prescan walks a file's lines without rewriting them and pins every
// prefix ipAt recognizes — the ones the generic pass maps: address+netmask
// pairs, wildcard pairs, classful network statements, slash prefixes —
// into the IP mapping tree, shortest prefix first.
//
// This is the "controlling how new entries are added to the data-structure"
// of §4.3: by resolving the /8 before the /24s it contains, and the /24s
// before their hosts, every subnet address maps to a subnet address
// regardless of the order addresses happen to appear in the files.
// Every rewrite prescans its own input first; callers anonymizing a
// multi-file network should SafePrescan every file first so cross-file
// orderings cannot break the shaping either.
func (a *Anonymizer) prescan(lines []string) {
	start := time.Now()
	defer func() { a.observeStage(stagePrescan, time.Since(start)) }()
	type pin struct {
		net uint32
		len int
	}
	var pins []pin
	block := ""
	for _, line := range lines {
		var words, gaps []string
		words, gaps, a.tok = token.AppendFields(a.tok[:0], line)
		if len(words) == 0 {
			continue
		}
		if gaps[0] == "" {
			block = blockOf(words)
		}
		// Strip structural punctuation so JunOS values ("address
		// 12.0.0.1/30;") prescan like IOS ones.
		for i, w := range words {
			_, core, _ := token.TrimPunct(w)
			words[i] = core
		}
		for i := 0; i < len(words); {
			_, addr, length, width, ok := ipAt(words, i, block)
			if ok && length >= 0 {
				pins = append(pins, pin{addr & config.LenToMask(length), length})
			}
			i += width
		}
	}
	// Shortest prefixes first: the /8 pins its zero tail before a /24
	// inside it resolves the intermediate bits.
	sort.Slice(pins, func(i, j int) bool { return pins[i].len < pins[j].len })
	for _, p := range pins {
		a.ip.MapPrefix(p.net, p.len)
	}
	if a.tmpl != nil {
		a.tmpl.pins = a.tmpl.calls.Len()
	}
}
