package cregex

import (
	"slices"
	"strconv"
)

// Alphabet is the set of bytes that Any ('.') and negated classes range
// over. AS numbers and community values are decimal strings; community
// attributes additionally contain a colon.
const Alphabet = "0123456789:"

var alphaSet = func() ByteSet {
	var s ByteSet
	for i := 0; i < len(Alphabet); i++ {
		s.Add(Alphabet[i])
	}
	return s
}()

// edge kinds in the compiled NFA.
const (
	edgeEps = iota
	edgeBound
	edgeChar
)

type edge struct {
	kind int
	set  ByteSet // for edgeChar
	to   int
}

type program struct {
	edges  [][]edge
	start  int
	accept int
}

func (p *program) newState() int {
	p.edges = append(p.edges, nil)
	return len(p.edges) - 1
}

func (p *program) addEdge(from int, e edge) {
	p.edges[from] = append(p.edges[from], e)
}

// compile builds a Thompson NFA for the AST.
func compile(root Node) *program {
	p := &program{}
	start := p.newState()
	accept := p.newState()
	p.start, p.accept = start, accept
	p.build(root, start, accept)
	return p
}

// build wires sub between states from and to.
func (p *program) build(n Node, from, to int) {
	switch n := n.(type) {
	case *Lit:
		var s ByteSet
		s.Add(n.C)
		p.addEdge(from, edge{kind: edgeChar, set: s, to: to})
	case *Any:
		p.addEdge(from, edge{kind: edgeChar, set: alphaSet, to: to})
	case *Class:
		s := n.Set
		if n.Neg {
			var neg ByteSet
			for i := 0; i < len(Alphabet); i++ {
				if !s.Has(Alphabet[i]) {
					neg.Add(Alphabet[i])
				}
			}
			s = neg
		}
		p.addEdge(from, edge{kind: edgeChar, set: s, to: to})
	case *Bound:
		p.addEdge(from, edge{kind: edgeBound, to: to})
	case *Group:
		p.build(n.Sub, from, to)
	case *Concat:
		if len(n.Subs) == 0 {
			p.addEdge(from, edge{kind: edgeEps, to: to})
			return
		}
		cur := from
		for i, sub := range n.Subs {
			next := to
			if i < len(n.Subs)-1 {
				next = p.newState()
			}
			p.build(sub, cur, next)
			cur = next
		}
	case *Alt:
		for _, sub := range n.Subs {
			s := p.newState()
			e := p.newState()
			p.addEdge(from, edge{kind: edgeEps, to: s})
			p.build(sub, s, e)
			p.addEdge(e, edge{kind: edgeEps, to: to})
		}
	case *Repeat:
		switch n.Op {
		case '?':
			p.addEdge(from, edge{kind: edgeEps, to: to})
			p.build(n.Sub, from, to)
		case '*':
			loop := p.newState()
			p.addEdge(from, edge{kind: edgeEps, to: loop})
			p.addEdge(loop, edge{kind: edgeEps, to: to})
			s := p.newState()
			e := p.newState()
			p.addEdge(loop, edge{kind: edgeEps, to: s})
			p.build(n.Sub, s, e)
			p.addEdge(e, edge{kind: edgeEps, to: loop})
		case '+':
			mid := p.newState()
			p.build(n.Sub, from, mid)
			p.addEdge(mid, edge{kind: edgeEps, to: to})
			s := p.newState()
			p.addEdge(mid, edge{kind: edgeEps, to: s})
			p.build(n.Sub, s, mid)
		}
	}
}

// stateSet is a set of NFA states: on answers membership, list holds the
// members in insertion order, so walking or clearing a set costs its
// size, not the program's.
type stateSet struct {
	on   []bool
	list []int
}

func newStateSet(n int) stateSet { return stateSet{on: make([]bool, n)} }

func (s *stateSet) add(st int) {
	if !s.on[st] {
		s.on[st] = true
		s.list = append(s.list, st)
	}
}

func (s *stateSet) reset() {
	for _, st := range s.list {
		s.on[st] = false
	}
	s.list = s.list[:0]
}

func (s stateSet) clone() stateSet {
	return stateSet{on: slices.Clone(s.on), list: slices.Clone(s.list)}
}

// closure expands set across epsilon edges, and across boundary edges
// when atBoundary is true. The list is its own worklist: a state added
// during the walk is visited in turn.
func (p *program) closure(set *stateSet, atBoundary bool) {
	for i := 0; i < len(set.list); i++ {
		for _, e := range p.edges[set.list[i]] {
			if e.kind == edgeChar || e.kind == edgeBound && !atBoundary {
				continue
			}
			set.add(e.to)
		}
	}
}

// advance adds to next every state a character edge on c leads to from
// a state of cur.
func (p *program) advance(cur, next *stateSet, c byte) {
	for _, s := range cur.list {
		for _, e := range p.edges[s] {
			if e.kind == edgeChar && e.set.Has(c) {
				next.add(e.to)
			}
		}
	}
}

// matcher simulates the NFA over one token at a time. Its two state sets
// are reused from token to token, so matching many tokens with one
// matcher allocates only while the sets first grow.
type matcher struct {
	p         *program
	cur, next stateSet
}

func newMatcher(p *program) *matcher {
	return &matcher{p: p, cur: newStateSet(len(p.edges)), next: newStateSet(len(p.edges))}
}

// MatchToken reports whether the regexp matches the entire token, with
// boundary assertions ('_', '^', '$') satisfiable only at the token's
// start and end — the semantics of applying an IOS AS-path regexp to a
// standalone AS number or community value.
func (re *Regexp) MatchToken(token string) bool { return newMatcher(re.prog).match(token) }

func (m *matcher) match(token string) bool {
	p := m.p
	cur, next := &m.cur, &m.next
	cur.reset()
	cur.add(p.start)
	p.closure(cur, true) // position 0 is a boundary
	for i := 0; i < len(token); i++ {
		next.reset()
		p.advance(cur, next, token[i])
		if len(next.list) == 0 {
			return false
		}
		p.closure(next, i == len(token)-1) // after last char we are at a boundary
		cur, next = next, cur
	}
	return cur.on[p.accept]
}

// MatchASN reports whether the regexp accepts the AS number a when applied
// to it as a standalone token.
func (re *Regexp) MatchASN(a uint32) bool {
	return re.MatchToken(strconv.FormatUint(uint64(a), 10))
}

// Universe is the size of the 16-bit ASN/community-value space the paper
// enumerates over ("since there are only 2^16 ASNs in BGPv4").
const Universe = 1 << 16

// Language returns, in increasing order, every value in [0, Universe) the
// regexp accepts as a standalone token. Enumeration runs over a lazily
// constructed DFA; languageNFA is the slow reference implementation the
// tests cross-check against.
func (re *Regexp) Language() []uint32 {
	return re.languageDFA()
}

// languageNFA enumerates the language by direct NFA simulation of every
// universe value; it exists as the independent oracle for tests.
func (re *Regexp) languageNFA() []uint32 {
	var out []uint32
	var buf [5]byte
	m := newMatcher(re.prog)
	for v := 0; v < Universe; v++ {
		s := strconv.AppendUint(buf[:0], uint64(v), 10)
		if m.match(string(s)) {
			out = append(out, uint32(v))
		}
	}
	return out
}

// AcceptsAll reports whether the regexp accepts every value of the
// universe (for example ".*" or "[0-9]+"); such a regexp needs no
// rewriting because any permutation of the universe leaves the language
// unchanged.
func AcceptsAll(lang []uint32) bool { return len(lang) == Universe }
