package cregex

import (
	"errors"
	"slices"
	"strconv"
)

// This file implements regexp rewriting under a permutation (§4.4, §4.5):
// given a routing-policy regexp that accepts some set of AS numbers (or
// community values), produce a regexp that accepts exactly the images of
// that set under the anonymizing permutation.
//
// The method follows the paper: the language accepted by the (sub)regexp
// is found "by simply applying the regexp to a list of all 2^16 ASNs and
// seeing which it accepts"; the accepted public ASNs are permuted; and a
// new regexp accepting the new language is emitted — by default the
// alternation of all members ("70[1-3] becomes (701|702|703)"), optionally
// the minimal-DFA reconstruction the paper notes is available.
//
// Patterns are decomposed structurally first: maximal runs of
// digit-matching atoms form "number atoms", separated by boundary
// assertions and non-digit literals. Each number atom is enumerated and
// rewritten independently, so multi-number path regexps such as
// "_1239_.*_70[2-5]_" are handled correctly, and pure-literal atoms keep
// their shape (1239 is replaced by a single permuted number, not an
// alternation).

// Style selects the output form for a rewritten language.
type Style int

const (
	// Alternation emits "(a|b|c)", the paper's production form.
	Alternation Style = iota
	// Minimal emits the minimal-DFA reconstruction.
	Minimal
)

// Result reports what a rewrite did.
type Result struct {
	Pattern string // the rewritten pattern (equal to input when unchanged)
	Changed bool   // whether any atom was rewritten
	Atoms   int    // number atoms examined
	Mapped  int    // number atoms actually rewritten
}

// ErrUnsplittable is returned when a community pattern has no top-level
// colon to separate its ASN half from its value half; the caller should
// fall back to hashing the token.
var ErrUnsplittable = errors.New("cregex: community pattern has no top-level colon")

// ErrUndecomposable is returned when a pattern's number atoms cannot be
// soundly rewritten independently (digits could juxtapose across atom
// boundaries) and the whole-pattern language is empty, leaving nothing to
// rewrite; the caller should fall back to hashing the pattern — the
// paper's trade-off: "we have chosen to favor anonymity over information".
var ErrUndecomposable = errors.New("cregex: pattern not decomposable into number atoms")

// rewriter carries the permutation and policy through the AST walk.
type rewriter struct {
	// mapVal maps one accepted value to its anonymized image.
	mapVal func(uint32) uint32
	// needsRewrite decides whether a language requires rewriting at all
	// (for ASNs: only if it contains a public ASN).
	needsRewrite func([]uint32) bool
	style        Style
	atoms        int
	mapped       int
	err          error
}

// RewriteASN rewrites an AS-path regexp under the ASN permutation perm
// (which must be the identity on private ASNs). Languages containing no
// public ASN are left untouched, as is any atom accepting the whole
// universe (a permutation fixes the universe as a set).
func RewriteASN(pattern string, perm func(uint32) uint32, style Style) (Result, error) {
	re, err := Parse(pattern)
	if err != nil {
		return Result{}, err
	}
	rw := &rewriter{
		mapVal: perm,
		needsRewrite: func(lang []uint32) bool {
			for _, v := range lang {
				if v >= 1 && v <= 64511 {
					return true
				}
			}
			return false
		},
		style: style,
	}
	root := rw.rewriteTree(re.Root)
	if rw.err != nil {
		return Result{}, rw.err
	}
	out := &Regexp{Root: root}
	res := Result{Pattern: out.String(), Atoms: rw.atoms, Mapped: rw.mapped, Changed: rw.mapped > 0}
	if !res.Changed {
		res.Pattern = pattern // keep the exact original spelling
	}
	return res, nil
}

// rewriteTree checks decomposability first: when the atoms of root cannot
// be rewritten independently, the whole expression is enumerated as one
// unit (an empty whole-expression language is unverifiable and becomes
// ErrUndecomposable, directing the caller to hash the pattern).
func (rw *rewriter) rewriteTree(root Node) Node {
	if rw.decomposable(root, false, false) {
		return rw.rewriteNode(root)
	}
	return rw.rewriteWhole(root)
}

// rewriteWhole enumerates root's entire language and replaces the tree.
func (rw *rewriter) rewriteWhole(root Node) Node {
	rw.atoms++
	sub := &Regexp{Root: root}
	sub.prog = compile(root)
	lang := sub.Language()
	if len(lang) == 0 {
		rw.err = ErrUndecomposable
		return root
	}
	if AcceptsAll(lang) || !rw.needsRewrite(lang) {
		return root
	}
	rw.mapped++
	mapped := make([]uint32, len(lang))
	for i, v := range lang {
		mapped[i] = rw.mapVal(v)
	}
	slices.Sort(mapped)
	if len(mapped) == 1 {
		return literalNumber(mapped[0])
	}
	var pat string
	if rw.style == Minimal {
		pat = MinimalRegexp(mapped)
	} else {
		pat = AlternationRegexp(mapped)
	}
	repl, err := Parse(pat)
	if err != nil {
		rw.err = err
		return root
	}
	return repl.Root
}

// RewriteCommunity rewrites a community-list regexp "asnpart:valuepart".
// The ASN half is rewritten with asnPerm like an AS-path regexp; the value
// half is rewritten with valPerm, which applies to every value (§4.5: even
// the integer part must be anonymized).
func RewriteCommunity(pattern string, asnPerm, valPerm func(uint32) uint32, style Style) (Result, error) {
	re, err := Parse(pattern)
	if err != nil {
		return Result{}, err
	}
	rw := &rewriter{style: style}
	root := rw.rewriteCommunityNode(re.Root, asnPerm, valPerm)
	if rw.err != nil {
		return Result{}, rw.err
	}
	out := &Regexp{Root: root}
	res := Result{Pattern: out.String(), Atoms: rw.atoms, Mapped: rw.mapped, Changed: rw.mapped > 0}
	if !res.Changed {
		res.Pattern = pattern
	}
	return res, nil
}

// rewriteCommunityNode splits at the top-level colon and dispatches each
// half. Alternations and groups are handled per branch.
func (rw *rewriter) rewriteCommunityNode(n Node, asnPerm, valPerm func(uint32) uint32) Node {
	switch n := n.(type) {
	case *Alt:
		subs := make([]Node, len(n.Subs))
		for i, s := range n.Subs {
			subs[i] = rw.rewriteCommunityNode(s, asnPerm, valPerm)
		}
		return &Alt{Subs: subs}
	case *Group:
		return &Group{Sub: rw.rewriteCommunityNode(n.Sub, asnPerm, valPerm)}
	case *Concat:
		colon := -1
		for i, s := range n.Subs {
			if lit, ok := s.(*Lit); ok && lit.C == ':' {
				colon = i
				break
			}
		}
		if colon < 0 {
			// A concat with a single group/alt child may hold the colon
			// one level down.
			if len(n.Subs) == 1 {
				return rw.rewriteCommunityNode(n.Subs[0], asnPerm, valPerm)
			}
			rw.err = ErrUnsplittable
			return n
		}
		left := &Concat{Subs: n.Subs[:colon]}
		right := &Concat{Subs: n.Subs[colon+1:]}
		asnRW := &rewriter{
			mapVal: asnPerm,
			needsRewrite: func(lang []uint32) bool {
				for _, v := range lang {
					if v >= 1 && v <= 64511 {
						return true
					}
				}
				return false
			},
			style: rw.style,
		}
		valRW := &rewriter{
			mapVal:       valPerm,
			needsRewrite: func(lang []uint32) bool { return len(lang) > 0 },
			style:        rw.style,
		}
		newLeft := asnRW.rewriteTree(left)
		newRight := valRW.rewriteTree(right)
		rw.atoms += asnRW.atoms + valRW.atoms
		rw.mapped += asnRW.mapped + valRW.mapped
		if asnRW.err != nil {
			rw.err = asnRW.err
		}
		if valRW.err != nil {
			rw.err = valRW.err
		}
		subs := append([]Node{}, flatten(newLeft)...)
		subs = append(subs, &Lit{C: ':'})
		subs = append(subs, flatten(newRight)...)
		return &Concat{Subs: subs}
	default:
		rw.err = ErrUnsplittable
		return n
	}
}

func flatten(n Node) []Node {
	if c, ok := n.(*Concat); ok {
		return c.Subs
	}
	return []Node{n}
}

// digity reports whether a node can only participate in matching the
// digits of a number (and therefore belongs inside a number atom).
func digity(n Node) bool {
	switch n := n.(type) {
	case *Lit:
		return n.C >= '0' && n.C <= '9'
	case *Any:
		return true
	case *Class:
		return true // classes in this dialect range over digits
	case *Repeat:
		return digity(n.Sub)
	case *Group:
		return digity(n.Sub)
	case *Concat:
		for _, s := range n.Subs {
			if !digity(s) {
				return false
			}
		}
		return len(n.Subs) > 0
	case *Alt:
		for _, s := range n.Subs {
			if !digity(s) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// rewriteNode walks the AST rewriting every number atom.
func (rw *rewriter) rewriteNode(n Node) Node {
	switch n := n.(type) {
	case *Alt:
		subs := make([]Node, len(n.Subs))
		for i, s := range n.Subs {
			subs[i] = rw.rewriteNode(s)
		}
		return &Alt{Subs: subs}
	case *Group:
		if digity(n) {
			return rw.rewriteRun([]Node{n})
		}
		return &Group{Sub: rw.rewriteNode(n.Sub)}
	case *Repeat:
		if digity(n) {
			return rw.rewriteRun([]Node{n})
		}
		return &Repeat{Sub: rw.rewriteNode(n.Sub), Op: n.Op}
	case *Concat:
		var out []Node
		i := 0
		for i < len(n.Subs) {
			if !digity(n.Subs[i]) {
				out = append(out, rw.rewriteNode(n.Subs[i]))
				i++
				continue
			}
			j := i
			for j < len(n.Subs) && digity(n.Subs[j]) {
				j++
			}
			out = append(out, flatten(rw.rewriteRun(n.Subs[i:j]))...)
			i = j
		}
		return &Concat{Subs: out}
	case *Lit, *Class, *Any:
		if digity(n) {
			return rw.rewriteRun([]Node{n})
		}
		return n
	default:
		return n
	}
}

// rewriteRun rewrites one number atom (a maximal run of digit-matching
// nodes). The run's language over the universe is enumerated; if it needs
// rewriting, a replacement subtree accepting the permuted language is
// substituted.
func (rw *rewriter) rewriteRun(run []Node) Node {
	rw.atoms++
	atom := Node(&Concat{Subs: run})
	if len(run) == 1 {
		atom = run[0]
	}
	sub := &Regexp{Root: atom}
	sub.prog = compile(atom)
	lang := sub.Language()
	if len(lang) == 0 || AcceptsAll(lang) || !rw.needsRewrite(lang) {
		// An atom with an empty language (a literal above 65535) is out
		// of the 16-bit universe and is left alone.
		return atom
	}
	rw.mapped++
	mapped := make([]uint32, len(lang))
	for i, v := range lang {
		mapped[i] = rw.mapVal(v)
	}
	slices.Sort(mapped)
	// A singleton language keeps its literal shape: 1239 -> 28411, not
	// (28411).
	if len(mapped) == 1 {
		return literalNumber(mapped[0])
	}
	var pat string
	if rw.style == Minimal {
		pat = MinimalRegexp(mapped)
	} else {
		pat = AlternationRegexp(mapped)
	}
	repl, err := Parse(pat)
	if err != nil {
		// The generators above always emit parseable patterns; treat a
		// failure as an internal bug surfaced to the caller.
		rw.err = err
		return atom
	}
	if _, ok := repl.Root.(*Group); ok {
		return repl.Root
	}
	return &Group{Sub: repl.Root}
}

func literalNumber(v uint32) Node {
	s := strconv.FormatUint(uint64(v), 10)
	subs := make([]Node, len(s))
	for i := 0; i < len(s); i++ {
		subs[i] = &Lit{C: s[i]}
	}
	if len(subs) == 1 {
		return subs[0]
	}
	return &Concat{Subs: subs}
}
