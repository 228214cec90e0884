// Command confexp regenerates the paper-vs-measured report recorded in
// EXPERIMENTS.md: every experiment E1–E10 and ablation A1–A3 from DESIGN.md.
// E4, E5, E6 and E8 come from one pass over the standard population; the
// E4 row's bracket times that pass.
//
// Usage:
//
//	confexp           # reduced scale (seconds)
//	confexp -full     # paper scale (minutes; E9 runs ~4.3M lines)
package main

import (
	"flag"
	"fmt"
	"time"

	"confanon/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's full scale")
	flag.Parse()

	scale := 0.25
	e3nets, e3routers := 60, 8
	e9lines := 200000
	if *full {
		scale = 1.0
		e3nets, e3routers = 173, 12
		e9lines = 4300000
	}

	show := func(r fmt.Stringer, bracket string) { fmt.Printf("%s   [%s]\n\n", r, bracket) }
	run := func(f func() fmt.Stringer) {
		start := time.Now()
		r := f()
		show(r, time.Since(start).Round(time.Millisecond).String())
	}

	fmt.Printf("confexp: reproduction report (scale=%.2f)\n\n", scale)
	run(func() fmt.Stringer { return experiments.E1Dataset(scale) })
	run(func() fmt.Stringer { return experiments.E2Figure1() })
	run(func() fmt.Stringer { return experiments.E3Comments(e3nets, e3routers) })
	var study experiments.Study
	run(func() fmt.Stringer { study = experiments.PopulationStudy(scale); return study.E4 })
	show(study.E5, "E4's pass")
	show(study.E6, "E4's pass")
	run(func() fmt.Stringer { return experiments.E7LeakIteration(8) })
	show(study.E8, "E4's pass")
	run(func() fmt.Stringer { return experiments.E9Throughput(e9lines) })
	run(func() fmt.Stringer { return experiments.E10JunOS(10) })
	run(func() fmt.Stringer { return experiments.A1IPSchemes(20000) })
	run(func() fmt.Stringer { return experiments.A2RegexForms() })
	run(func() fmt.Stringer { return experiments.A3Segmentation() })
}
