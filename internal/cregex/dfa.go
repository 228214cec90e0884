package cregex

import (
	"container/heap"
	"sort"
	"strconv"
	"strings"
)

// This file implements the refinement the paper sketches in §4.4: "We
// could use known polynomial-time algorithms for constructing the minimum
// finite automata (FA) that accepts the new language and then convert this
// FA back into a regexp". The minimal acyclic DFA for the (finite)
// permuted language is constructed directly with the incremental algorithm
// of Daciuk et al. for lexicographically sorted input, and converted back
// to a pattern by state elimination with character-class compression.

// dfaState is one state of the acyclic DFA under construction.
type dfaState struct {
	final bool
	// trans is kept sorted by byte; words are added in lexicographic
	// order so the last transition is always the most recent.
	trans []dfaTrans
}

type dfaTrans struct {
	c  byte
	to int
}

type dawg struct {
	states   []dfaState
	register map[string]int
}

func newDawg() *dawg {
	d := &dawg{register: make(map[string]int)}
	d.states = append(d.states, dfaState{}) // root
	return d
}

func (d *dawg) child(s int, c byte) int {
	for _, t := range d.states[s].trans {
		if t.c == c {
			return t.to
		}
	}
	return -1
}

func (d *dawg) lastChild(s int) (byte, int) {
	ts := d.states[s].trans
	if len(ts) == 0 {
		return 0, -1
	}
	t := ts[len(ts)-1]
	return t.c, t.to
}

func (d *dawg) setLastChild(s, to int) {
	ts := d.states[s].trans
	ts[len(ts)-1].to = to
}

// signature canonically identifies a state by finality and transitions.
func (d *dawg) signature(s int) string {
	var b strings.Builder
	if d.states[s].final {
		b.WriteByte('F')
	}
	for _, t := range d.states[s].trans {
		b.WriteByte(t.c)
		b.WriteString(strconv.Itoa(t.to))
		b.WriteByte(';')
	}
	return b.String()
}

func (d *dawg) replaceOrRegister(s int) {
	_, childID := d.lastChild(s)
	if childID < 0 {
		return
	}
	if len(d.states[childID].trans) > 0 {
		d.replaceOrRegister(childID)
	}
	sig := d.signature(childID)
	if q, ok := d.register[sig]; ok {
		d.setLastChild(s, q)
	} else {
		d.register[sig] = childID
	}
}

func (d *dawg) addWord(w string) {
	// Walk the common prefix.
	s := 0
	i := 0
	for i < len(w) {
		next := d.child(s, w[i])
		if next < 0 {
			break
		}
		s = next
		i++
	}
	if len(d.states[s].trans) > 0 {
		d.replaceOrRegister(s)
	}
	// Add the suffix.
	for ; i < len(w); i++ {
		d.states = append(d.states, dfaState{})
		id := len(d.states) - 1
		d.states[s].trans = append(d.states[s].trans, dfaTrans{c: w[i], to: id})
		s = id
	}
	d.states[s].final = true
}

// buildMinimalDFA builds the minimal acyclic DFA accepting exactly the
// given words. Words are sorted lexicographically first (a requirement of
// the incremental algorithm).
func buildMinimalDFA(words []string) *dawg {
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	d := newDawg()
	prev := ""
	for _, w := range sorted {
		if w == prev {
			continue
		}
		d.addWord(w)
		prev = w
	}
	d.replaceOrRegister(0)
	return d
}

// label is a regexp-labeled GNFA edge used during state elimination. A
// label is either a pure character class (set != nil) or a general
// expression string with grouping metadata.
type label struct {
	set    *ByteSet // non-nil: matches exactly one byte from the set
	expr   string
	hasAlt bool // expr contains a top-level alternation
	unit   bool // expr is a single atom (safe to star/concat bare)
}

func classLabel(s ByteSet) label { return label{set: &s} }

func exprOf(l label) (expr string, hasAlt, unit bool) {
	if l.set != nil {
		return renderClass(*l.set), false, true
	}
	return l.expr, l.hasAlt, l.unit
}

// renderClass prints a ByteSet as a single char, an escaped char, or a
// bracket class with ranges.
func renderClass(s ByteSet) string {
	var b strings.Builder
	if s.Count() == 1 {
		for c := 0; c < 256; c++ {
			if s.Has(byte(c)) {
				(&Lit{C: byte(c)}).writeTo(&b)
				return b.String()
			}
		}
	}
	cl := &Class{Set: s}
	cl.writeTo(&b)
	return b.String()
}

func unionLabels(a, b label) label {
	if a.set != nil && b.set != nil {
		var s ByteSet
		s.Union(*a.set)
		s.Union(*b.set)
		return classLabel(s)
	}
	ae, _, _ := exprOf(a)
	be, _, _ := exprOf(b)
	return label{expr: ae + "|" + be, hasAlt: true}
}

func concatLabels(a, b label) label {
	ae, aAlt, _ := exprOf(a)
	be, bAlt, _ := exprOf(b)
	if ae == "" {
		return b
	}
	if be == "" {
		return a
	}
	if aAlt {
		ae = "(" + ae + ")"
	}
	if bAlt {
		be = "(" + be + ")"
	}
	return label{expr: ae + be}
}

func starLabel(l label) label {
	e, _, unit := exprOf(l)
	if e == "" {
		return label{expr: ""}
	}
	if !unit {
		e = "(" + e + ")"
	}
	return label{expr: e + "*", unit: true}
}

// emptyLabel matches the empty string.
var emptyLabel = label{expr: "", unit: true}

// gnfa is the generalized NFA used by state elimination. Adjacency sets
// are maintained incrementally so choosing the next state to eliminate
// (fewest in*out pairs) is cheap.
type gnfa struct {
	edges map[[2]int]label
	out   map[int]map[int]bool
	in    map[int]map[int]bool
}

func newGNFA() *gnfa {
	return &gnfa{
		edges: make(map[[2]int]label),
		out:   make(map[int]map[int]bool),
		in:    make(map[int]map[int]bool),
	}
}

func (g *gnfa) setEdge(from, to int, l label) {
	key := [2]int{from, to}
	if prev, ok := g.edges[key]; ok {
		g.edges[key] = unionLabels(prev, l)
		return
	}
	g.edges[key] = l
	if g.out[from] == nil {
		g.out[from] = make(map[int]bool)
	}
	g.out[from][to] = true
	if g.in[to] == nil {
		g.in[to] = make(map[int]bool)
	}
	g.in[to][from] = true
}

func (g *gnfa) delEdge(from, to int) {
	delete(g.edges, [2]int{from, to})
	delete(g.out[from], to)
	delete(g.in[to], from)
}

// cost is the number of new edges eliminating s would form.
func (g *gnfa) cost(s int) int {
	in, out := len(g.in[s]), len(g.out[s])
	if g.in[s][s] {
		in--
		out--
	}
	return in * out
}

// elimQueue is toRegexp's min-heap of cost*n+state keys, n the number
// of states: cheapest first, ties to the lowest state number. A state
// whose cost changes is pushed again, so a popped key is stale unless
// it carries the state's current cost.
type elimQueue struct{ sort.IntSlice }

func (q *elimQueue) Push(x any) { q.IntSlice = append(q.IntSlice, x.(int)) }
func (q *elimQueue) Pop() any {
	x := q.IntSlice[len(q.IntSlice)-1]
	q.IntSlice = q.IntSlice[:len(q.IntSlice)-1]
	return x
}

// toRegexp converts the DFA to a pattern by eliminating states in an order
// chosen to keep intermediate labels small. The order is fixed, so one
// language always yields one pattern.
func (d *dawg) toRegexp() string {
	n := len(d.states)
	g := newGNFA()
	start, accept := n, n+1
	g.setEdge(start, 0, emptyLabel)
	for s, st := range d.states {
		if st.final {
			g.setEdge(s, accept, emptyLabel)
		}
		// Group transitions by destination so parallel edges become one
		// character class immediately.
		byDest := make(map[int]ByteSet)
		for _, t := range st.trans {
			s2 := byDest[t.to]
			s2.Add(t.c)
			byDest[t.to] = s2
		}
		for to, set := range byDest {
			g.setEdge(s, to, classLabel(set))
		}
	}
	q := &elimQueue{make(sort.IntSlice, n)}
	for s := range q.IntSlice {
		q.IntSlice[s] = g.cost(s)*n + s
	}
	heap.Init(q)
	gone := make([]bool, n)
	for q.Len() > 0 {
		key := heap.Pop(q).(int)
		s := key % n
		if gone[s] || key/n != g.cost(s) {
			continue
		}
		gone[s] = true
		for _, t := range g.eliminate(s) {
			if t < n && !gone[t] {
				heap.Push(q, g.cost(t)*n+t)
			}
		}
	}
	l, ok := g.edges[[2]int{start, accept}]
	if !ok {
		// Empty language: a sentinel pattern that can match no
		// non-empty token (boundary assertions out of order).
		return "$^"
	}
	e, _, _ := exprOf(l)
	return e
}

// eliminate removes s, joining each in-edge to each out-edge through
// s's loop, and returns the neighbours whose cost changed. Edges are
// visited in ascending state order, so labels merging into one edge
// always merge in the same order.
func (g *gnfa) eliminate(s int) []int {
	loop := emptyLabel
	if l, ok := g.edges[[2]int{s, s}]; ok {
		loop = starLabel(l)
		g.delEdge(s, s)
	}
	ins, outs := sortedKeys(g.in[s]), sortedKeys(g.out[s])
	for _, from := range ins {
		l := concatLabels(g.edges[[2]int{from, s}], loop)
		for _, to := range outs {
			g.setEdge(from, to, concatLabels(l, g.edges[[2]int{s, to}]))
		}
		g.delEdge(from, s)
	}
	for _, to := range outs {
		g.delEdge(s, to)
	}
	return append(ins, outs...)
}

// sortedKeys returns a state set's members in ascending order.
func sortedKeys(set map[int]bool) []int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// MinimalRegexp builds a compact pattern accepting exactly the given set
// of values (as decimal tokens): minimal acyclic DFA, then state
// elimination. An empty language yields a pattern that matches nothing.
func MinimalRegexp(lang []uint32) string {
	words := make([]string, len(lang))
	for i, v := range lang {
		words[i] = strconv.FormatUint(uint64(v), 10)
	}
	d := buildMinimalDFA(words)
	return d.toRegexp()
}

// AlternationRegexp builds the paper's plain form: the alternation of all
// values in the language, e.g. "(701|702|703)". This is "very long" for
// big languages "but this is not a problem when anonymized configs are
// primarily analyzed by software tools" (§4.4).
func AlternationRegexp(lang []uint32) string {
	if len(lang) == 0 {
		return "$^"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range lang {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	b.WriteByte(')')
	return b.String()
}

// MinimalDFASize reports the number of states in the minimal acyclic DFA
// for the language, used by the ablation benchmarks.
func MinimalDFASize(lang []uint32) int {
	words := make([]string, len(lang))
	for i, v := range lang {
		words[i] = strconv.FormatUint(uint64(v), 10)
	}
	return len(buildMinimalDFA(words).states)
}
