package cregex

import (
	"math/bits"
	"strconv"
	"strings"
)

// Lazy DFA for fast language enumeration. Language() applies the regexp
// to all 2^16 values of the universe; simulating the NFA per value costs
// O(len * states) each, whereas the subset-construction DFA costs O(len)
// per value after each distinct state set has been expanded once.
//
// Boundary assertions keep this subtle: a state set reached mid-token must
// not have crossed boundary edges, but acceptance is tested as if the
// token ended at the current position. Each cached DFA state therefore
// stores its mid-token closure and a lazily computed accept flag that
// applies the boundary closure.

type dnode struct {
	set stateSet
	// trans holds the successor per input byte: nil until computed,
	// dead once the byte is known to reject the token.
	trans  [256]*dnode
	accept bool
}

// dead is the sentinel successor of a rejecting transition.
var dead = new(dnode)

type lazyDFA struct {
	prog  *program
	nodes map[string]*dnode
	start *dnode
}

func (p *program) key(set []bool) string {
	var b strings.Builder
	for s, in := range set {
		if in {
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(',')
		}
	}
	return b.String()
}

func newLazyDFA(p *program) *lazyDFA {
	d := &lazyDFA{prog: p, nodes: make(map[string]*dnode)}
	init := newStateSet(len(p.edges))
	init.add(p.start)
	p.closure(&init, true) // position 0 is a boundary
	d.start = d.intern(init)
	return d
}

func (d *lazyDFA) intern(set stateSet) *dnode {
	k := d.prog.key(set.on)
	if n, ok := d.nodes[k]; ok {
		return n
	}
	final := set.clone()
	d.prog.closure(&final, true)
	n := &dnode{set: set, accept: final.on[d.prog.accept]}
	d.nodes[k] = n
	return n
}

// step returns the DFA state after consuming c mid-token, or nil when the
// token is rejected.
func (d *lazyDFA) step(n *dnode, c byte) *dnode {
	if next := n.trans[c]; next != nil {
		if next == dead {
			return nil
		}
		return next
	}
	set := newStateSet(len(d.prog.edges))
	d.prog.advance(&n.set, &set, c)
	if len(set.list) == 0 {
		n.trans[c] = dead
		return nil
	}
	d.prog.closure(&set, false)
	next := d.intern(set)
	n.trans[c] = next
	return next
}

func (re *Regexp) dfa() *lazyDFA {
	if re.lazy == nil {
		re.lazy = newLazyDFA(re.prog)
	}
	return re.lazy
}

// languageDFA enumerates the accepted universe values using the lazy DFA.
// It walks the digit trie of valid decimal spellings (no leading zeros)
// so shared prefixes are expanded once. The walk visits values in trie
// order, so it marks them in a bitset over the universe, which is then
// read out in increasing order.
func (re *Regexp) languageDFA() []uint32 {
	d := re.dfa()
	var accepted [Universe / 64]uint64
	mark := func(v uint32) { accepted[v/64] |= 1 << (v % 64) }
	if n := d.step(d.start, '0'); n != nil && n.accept {
		mark(0)
	}
	var walk func(n *dnode, val uint32)
	walk = func(n *dnode, val uint32) {
		if n.accept {
			mark(val)
		}
		for c := byte('0'); c <= '9'; c++ {
			v := val*10 + uint32(c-'0')
			if v >= Universe {
				break
			}
			if next := d.step(n, c); next != nil {
				walk(next, v)
			}
		}
	}
	for c := byte('1'); c <= '9'; c++ {
		if n := d.step(d.start, c); n != nil {
			walk(n, uint32(c-'0'))
		}
	}
	count := 0
	for _, w := range accepted {
		count += bits.OnesCount64(w)
	}
	out := make([]uint32, 0, count)
	for i, w := range accepted {
		for w != 0 {
			out = append(out, uint32(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
