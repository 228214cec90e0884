// Carrier: the paper's headline workflow at population scale. Generate 31
// backbone and enterprise networks (the stand-in for the carrier dataset),
// anonymize each with its own owner salt, run both §5 validation suites on
// every network, and run the §6.1 leak report — printing one summary row
// per network.
//
//	go run ./examples/carrier
package main

import (
	"context"
	"fmt"
	"log"

	"confanon"
	"confanon/internal/netgen"
)

func main() {
	const networks = 31
	fmt.Printf("%-4s %-14s %-16s %8s %8s %7s %7s %7s %6s\n",
		"net", "name", "kind", "routers", "lines", "suite1", "suite2", "leaks", "regex")

	totalRouters, totalLines, pass1, pass2, clean := 0, 0, 0, 0, 0
	for i := 0; i < networks; i++ {
		kind, kindName := netgen.Backbone, "backbone"
		if i%2 == 1 {
			kind, kindName = netgen.Enterprise, "enterprise"
		}
		n := netgen.Generate(netgen.Params{
			Seed: int64(1000 + i), Kind: kind,
			// A few networks run JunOS (footnote 2: the techniques apply
			// to JunOS directly).
			JunOS: i%8 == 5,
			// Regexp prevalence per the paper: alternation in ~10/31,
			// public ranges 2/31, private ranges 3/31, community
			// regexps 5/31, community ranges 2/31.
			UseASPathAlternation: i%3 == 0,
			UsePublicASNRanges:   i == 4 || i == 20,
			UsePrivateASNRanges:  i == 7 || i == 15 || i == 23,
			UseCommunityRegexps:  i%6 == 2,
			UseCommunityRanges:   i == 2 || i == 14,
			Compartmentalized:    i%3 == 1,
		})
		pre := n.RenderAll()
		a := confanon.New(confanon.Options{Salt: []byte(n.Salt)})
		res, err := a.CorpusContext(context.Background(), pre)
		if err != nil || !res.Ok() {
			log.Fatalf("anonymizing network %d: %v %v", i, err, res.Failed())
		}
		post := res.Outputs()
		rep := confanon.Validate(pre, post)
		leaks := a.Leaks(post)
		real, fps := 0, 0
		for _, l := range leaks {
			if l.LikelyFalsePositive {
				fps++
			} else {
				real++
			}
		}

		s1, s2, lk := "PASS", "PASS", "clean"
		if len(rep.Suite1) > 0 {
			s1 = "FAIL"
		} else {
			pass1++
		}
		if rep.Suite2.OK() {
			pass2++
		} else {
			s2 = "FAIL"
		}
		if real == 0 {
			clean++
			if fps > 0 {
				lk = fmt.Sprintf("%dfp", fps)
			}
		} else {
			lk = fmt.Sprintf("%d", real)
		}
		st := a.Stats()
		totalRouters += len(n.Routers)
		totalLines += int(st.Lines)
		if n.Params.JunOS {
			kindName += "/junos"
		}
		fmt.Printf("%-4d %-14s %-16s %8d %8d %7s %7s %7s %6d\n",
			i+1, n.Params.Name, kindName, len(n.Routers), st.Lines, s1, s2, lk, st.RegexpsRewritten)
	}
	fmt.Printf("\ntotal: %d routers, %d config lines across %d networks\n",
		totalRouters, totalLines, networks)
	fmt.Printf("suite 1 pass: %d/%d   suite 2 pass: %d/%d   leak-clean: %d/%d\n",
		pass1, networks, pass2, networks, clean, networks)
}
