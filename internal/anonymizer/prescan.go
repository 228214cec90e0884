package anonymizer

import (
	"sort"
	"time"

	"confanon/internal/config"
	"confanon/internal/token"
)

// prescan walks a file's lines without rewriting them and pins every
// subnet address it can recognize (address+netmask pairs, wildcard pairs,
// classful network statements, slash prefixes) into the IP mapping tree,
// shortest prefix first.
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
	add := func(addr uint32, length int) {
		net := addr & config.LenToMask(length)
		pins = append(pins, pin{net, length})
	}
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
		for i := 0; i < len(words); i++ {
			addr, ok := token.ParseIPv4(words[i])
			if !ok {
				if p, l, pok := token.ParseIPv4Prefix(words[i]); pok {
					add(p, l)
				}
				continue
			}
			if i+2 < len(words) && words[i+1] == "mask" {
				if m, mok := token.ParseIPv4(words[i+2]); mok {
					if l, isMask := config.MaskToLen(m); isMask {
						add(addr, l)
						i += 2
						continue
					}
				}
			}
			if i+1 < len(words) {
				if second, ok2 := token.ParseIPv4(words[i+1]); ok2 {
					if l, isMask := config.MaskToLen(second); isMask && second != 0 {
						add(addr, l)
						i++
						continue
					}
					if l, isWild := config.MaskToLen(^second); isWild {
						add(addr, l)
						i++
						continue
					}
				}
			}
			if (block == "router rip" || block == "router eigrp" || block == "router igrp") &&
				i > 0 && words[i-1] == "network" {
				l, _ := config.MaskToLen(config.ClassfulMask(addr))
				add(addr, l)
			}
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
