package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"confanon"
	"confanon/internal/anonymizer"
	"confanon/internal/asn"
	"confanon/internal/cregex"
	"confanon/internal/ipanon"
	"confanon/internal/passlist"
	"confanon/internal/store"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// The traced pass measures each layer from outside: it calls the layer's
// public functions over the inputs the workload feeds it and records one
// span per batch of calls, named by the layer metric. Nothing inside the
// program is instrumented. The pass runs after the untraced window, so
// the end-to-end metrics never include its cost.
//
// Every workload reports every per-layer metric, including those of
// layers its own operation bypasses. The engine, token, Crypto-PAn, ASN
// and regexp drives run in the workload's own configuration. The batch
// phases, the gate and the shaped tree are always the strict driver's,
// and the store and line cache are always driven on a recording of the
// workload's inputs; README.md lists, per workload, which of these rows
// measure a layer its operation bypasses.

// sink keeps measured results alive so the calls cannot be optimized away.
var sink int

// pass is one traced pass over a workload's inputs.
type pass struct {
	in        *inputs
	stateless bool // the workload's engine runs under Crypto-PAn
	dir       string
	tr        *trace.Tracer
	root      trace.SpanID
	m         metricSet
	attempted int
	failed    int
}

// span runs f inside a span named after the layer metric it feeds.
func (p *pass) span(name string, parent trace.SpanID, f func()) time.Duration {
	sp := p.tr.StartSpan(trace.KindStage, name, parent)
	f()
	p.tr.End(sp, trace.StatusOK)
	return time.Duration(sp.DurNs)
}

// measure is span plus the heap allocations f made.
func (p *pass) measure(name string, f func()) (time.Duration, allocCounter) {
	before := readAllocs()
	d := p.span(name, p.root, f)
	return d, readAllocs().since(before)
}

// perLine converts a batch total into per-input-line rows.
func (p *pass) perLine(prefix string, d time.Duration, a allocCounter, lines int) {
	p.m.set(prefix+"ns_per_line", "ns", float64(d.Nanoseconds())/float64(lines), lines)
	p.m.set(prefix+"allocs_per_line", "count", float64(a.mallocs)/float64(lines), lines)
}

// tracedPass runs every layer drive and returns the per-layer metrics.
// op is one in-process run of the workload's own operation; the runtime
// rows are measured around it. recorded is a directory holding a
// recording of in (see record), or "" to make one under dir.
func tracedPass(in *inputs, stateless bool, recorded, dir string, tr *trace.Tracer, op func() error) (*pass, error) {
	p := &pass{in: in, stateless: stateless, dir: dir, tr: tr, m: metricSet{}}
	root := tr.StartSpan(trace.KindCorpus, "confperf", 0)
	p.root = root.ID
	defer tr.End(root, trace.StatusOK)

	if err := p.runtimeRows(op); err != nil {
		return nil, err
	}
	want, untraced, err := p.facade()
	if err != nil {
		return nil, err
	}
	calls := p.phases(want, untraced)
	p.engine()
	p.tokens()
	p.ipanon(calls)
	p.asn()
	p.cregex()
	if recorded == "" {
		recorded = filepath.Join(dir, "record")
		if err := record(in, recorded); err != nil {
			return nil, err
		}
	}
	if err := p.store(recorded); err != nil {
		return nil, err
	}
	if err := p.cache(recorded); err != nil {
		return nil, err
	}
	return p, nil
}

// runtimeRows measures allocation and GC share over three runs of the
// workload's operation.
func (p *pass) runtimeRows(op func() error) error {
	const runs = 3
	a0 := readAllocs()
	gc0, tot0, idle0 := gcCPU()
	for i := 0; i < runs; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	a := readAllocs().since(a0)
	gc1, tot1, idle1 := gcCPU()
	lines := runs * p.in.lines
	p.m.set("runtime.alloc_bytes_per_line", "B", float64(a.bytes)/float64(lines), lines)
	p.m.set("runtime.gc_cpu_fraction", "ratio", ratio(gc1-gc0, (tot1-tot0)-(idle1-idle0)), runs)
	return nil
}

// facadeRun is the production path over in: strict
// ParallelCorpusContext per group on one Session per owner (so an
// owner's later groups see its earlier mappings, as in the portal). It
// returns every group's published outputs and the wall time, which
// excludes Compile and NewSession.
func facadeRun(in *inputs) ([]map[string]string, time.Duration, error) {
	sessions := make([]*confanon.Anonymizer, len(in.owners))
	for o, ow := range in.owners {
		sessions[o] = confanon.Compile(strictOpts(ow.salt)).NewSession()
	}
	var outs []map[string]string
	t0 := time.Now()
	for _, g := range in.groups {
		res, err := sessions[g.owner].ParallelCorpusContext(context.Background(), g.files, batchWorkers)
		if err != nil {
			return nil, 0, err
		}
		outs = append(outs, res.Outputs())
	}
	return outs, time.Since(t0), nil
}

// facade runs facadeRun three times. It returns the outputs every traced
// drive must reproduce and the median untraced wall time.
func (p *pass) facade() ([]map[string]string, time.Duration, error) {
	var want []map[string]string
	var walls []float64
	for run := 0; run < 3; run++ {
		outs, wall, err := facadeRun(p.in)
		if err != nil {
			return nil, 0, err
		}
		want = outs
		walls = append(walls, wall.Seconds())
	}
	return want, time.Duration(median(walls) * float64(time.Second)), nil
}

// mapCall is one recorded IP-mapper call; length < 0 marks MapV4.
type mapCall struct {
	addr   uint32
	length int
}

// callRecorder is an ipanon.Mapper that records the calls replayed into
// it, to recover the corpus's first-seen address order.
type callRecorder struct{ calls []mapCall }

func (r *callRecorder) MapV4(ip uint32) uint32 {
	r.calls = append(r.calls, mapCall{ip, -1})
	return ip
}

func (r *callRecorder) MapPrefix(addr uint32, length int) uint32 {
	r.calls = append(r.calls, mapCall{addr, length})
	return addr
}

func (r *callRecorder) Mapping() []ipanon.Pair  { return nil }
func (r *callRecorder) Len() int                { return 0 }
func (r *callRecorder) Remaps() int64           { return 0 }
func (r *callRecorder) Since(int) []ipanon.Pair { return nil }

func replayCalls(m ipanon.Mapper, calls []mapCall) {
	for _, c := range calls {
		if c.length < 0 {
			sink += int(m.MapV4(c.addr))
		} else {
			sink += int(m.MapPrefix(c.addr, c.length))
		}
	}
}

// fanOut runs work on n goroutines over the indices 0..items-1 and
// waits for them.
func fanOut(items, n int, work func(idx <-chan int)) {
	ch := make(chan int, items)
	for i := 0; i < items; i++ {
		ch <- i
	}
	close(ch)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ch)
		}()
	}
	wg.Wait()
}

// pipelineResult is one group's pass through the four batch phases.
type pipelineResult struct {
	outs                  []string
	ok                    []bool // published: anonymized and not gated
	calls                 []mapCall
	census, replay        time.Duration
	rewrite, gate         time.Duration
	censusCPU, rewriteCPU float64
	gateAllocs            allocCounter
	confirmed             int
}

// fileCensus is one file's census: its prescan's and its full rewrite's
// mapper-call traces.
type fileCensus struct {
	pins, full *ipanon.Trace
	err        *anonymizer.FileError
}

// untimed is a phase timer that only runs f.
func untimed(_ string, f func()) time.Duration {
	f()
	return 0
}

// resolve runs ParallelCorpusContext's first two phases for one group
// as public calls, each timed by timer into r: CensusFile per file on
// batchWorkers goroutines, then Replay in driver order. Afterwards every
// address of the group is resolved in the session's tree.
func resolve(s *anonymizer.Session, g group, timer func(name string, f func()) time.Duration, r *pipelineResult) []fileCensus {
	cs := make([]fileCensus, len(g.names))
	cpu := cpuSeconds()
	r.census = timer("batch.census", func() {
		fanOut(len(g.names), batchWorkers, func(idx <-chan int) {
			for i := range idx {
				pins, full, err := s.CensusFile(g.names[i], g.files[g.names[i]])
				cs[i] = fileCensus{pins, full, err}
			}
		})
	})
	r.censusCPU = cpuSeconds() - cpu
	r.replay = timer("batch.replay", func() {
		for _, c := range cs {
			s.Replay(c.pins)
		}
		for _, c := range cs {
			if c.err == nil {
				s.Replay(c.full)
			}
		}
	})
	return cs
}

// pipeline runs ParallelCorpusContext's phases for one group as
// separate public calls, each phase timed by timer: resolve, then
// SafeAnonymizeText per file on batchWorkers goroutines, then LeakReport
// per output.
func pipeline(s *anonymizer.Session, g group, timer func(name string, f func()) time.Duration) pipelineResult {
	n := len(g.names)
	r := pipelineResult{outs: make([]string, n), ok: make([]bool, n)}
	cs := resolve(s, g, timer, &r)
	rec := &callRecorder{}
	for _, c := range cs {
		c.pins.Replay(rec)
	}
	for _, c := range cs {
		if c.err == nil {
			c.full.Replay(rec)
		}
	}
	r.calls = rec.calls

	cpu := cpuSeconds()
	r.rewrite = timer("batch.rewrite", func() {
		fanOut(n, batchWorkers, func(idx <-chan int) {
			wk := s.Acquire()
			defer s.Release(wk)
			for i := range idx {
				if cs[i].err != nil {
					continue
				}
				out, ferr := wk.SafeAnonymizeText(g.names[i], g.files[g.names[i]])
				r.outs[i], r.ok[i] = out, ferr == nil
			}
		})
	})
	r.rewriteCPU = cpuSeconds() - cpu

	a0 := readAllocs()
	r.gate = timer("batch.gate", func() {
		wk := s.Acquire()
		defer s.Release(wk)
		for i := range r.outs {
			if !r.ok[i] {
				continue
			}
			for _, l := range wk.LeakReport(r.outs[i]) {
				if !l.LikelyFalsePositive {
					r.confirmed++
					r.ok[i] = false
				}
			}
		}
	})
	r.gateAllocs = readAllocs().since(a0)
	return r
}

// phases breaks ParallelCorpusContext into its public calls for every
// group, on one Session per owner, and checks the result equals the
// facade's, byte for byte. It returns each owner's mapper calls in
// replay (first-seen) order.
func (p *pass) phases(want []map[string]string, untraced time.Duration) [][]mapCall {
	sessions := make([]*anonymizer.Session, len(p.in.owners))
	calls := make([][]mapCall, len(p.in.owners))
	for o, ow := range p.in.owners {
		sessions[o] = anonymizer.Compile(anonymizer.Options{Salt: ow.salt}).NewSession()
	}
	var census, replay, rewrite, gate time.Duration
	var censusCPU, rewriteCPU float64
	var gateAllocs allocCounter
	confirmed, quarantined := 0, 0
	for gi, g := range p.in.groups {
		gs := p.tr.StartSpan(trace.KindFile, g.label, p.root)
		timer := func(name string, f func()) time.Duration { return p.span(name, gs.ID, f) }
		r := pipeline(sessions[g.owner], g, timer)
		p.tr.End(gs, trace.StatusOK)

		census += r.census
		replay += r.replay
		rewrite += r.rewrite
		gate += r.gate
		censusCPU += r.censusCPU
		rewriteCPU += r.rewriteCPU
		gateAllocs.mallocs += r.gateAllocs.mallocs
		gateAllocs.bytes += r.gateAllocs.bytes
		confirmed += r.confirmed
		calls[g.owner] = append(calls[g.owner], r.calls...)
		for i, name := range g.names {
			p.attempted++
			text, published := want[gi][name]
			if !r.ok[i] {
				quarantined++
			}
			if r.ok[i] != published || (published && r.outs[i] != text) {
				p.failed++
			}
		}
	}
	lines := p.in.lines
	m := p.m
	m.set("batch.census_cpu_s", "s", censusCPU, len(p.in.groups))
	m.set("batch.replay_s", "s", replay.Seconds(), len(p.in.groups))
	m.set("batch.rewrite_cpu_s", "s", rewriteCPU, len(p.in.groups))
	m.set("batch.gate_s", "s", gate.Seconds(), len(p.in.groups))
	serial := replay.Seconds() + gate.Seconds()
	m.set("batch.serial_fraction", "ratio", ratio(serial, censusCPU+rewriteCPU+serial), len(p.in.groups))
	phaseSum := census + replay + rewrite + gate
	m.set("batch.trace_overhead_ratio", "ratio", ratio(phaseSum.Seconds(), untraced.Seconds())-1, 3)
	p.perLine("gate.", gate, gateAllocs, lines)
	m.set("gate.quarantined_files", "count", float64(quarantined), p.attempted)
	m.set("gate.confirmed_leaks", "count", float64(confirmed), p.attempted)
	return calls
}

// engine drives the engine's per-file entry points on one goroutine, on
// a fresh session per owner in the workload's configuration: the
// rewrite, the regexp-rewrite memo's hit ratio after it, the prescan,
// and the basic method's hash over every word the pass-list rejects.
// Under the shaped tree the census resolves every address first
// (untimed), so the rewrite row excludes tree insertions, and the memo
// has seen the census's rewrites as in ParallelCorpusContext.
func (p *pass) engine() {
	progs := make([]*anonymizer.Program, len(p.in.owners))
	sessions := make([]*anonymizer.Session, len(p.in.owners))
	for o, ow := range p.in.owners {
		progs[o] = anonymizer.Compile(anonymizer.Options{Salt: ow.salt, StatelessIP: p.stateless})
		sessions[o] = progs[o].NewSession()
	}
	if !p.stateless {
		for _, g := range p.in.groups {
			resolve(sessions[g.owner], g, untimed, &pipelineResult{})
		}
	}
	each := func(f func(wk *anonymizer.Anonymizer, name, text string)) func() {
		return func() {
			for _, g := range p.in.groups {
				s := sessions[g.owner]
				wk := s.Acquire()
				for _, name := range g.names {
					f(wk, name, g.files[name])
				}
				s.Release(wk)
			}
		}
	}
	lines := p.in.lines
	d, a := p.measure("engine.rewrite", each(func(wk *anonymizer.Anonymizer, name, text string) {
		out, _ := wk.SafeAnonymizeText(name, text)
		sink += len(out)
	}))
	p.perLine("engine.rewrite_", d, a, lines)
	p.m.set("engine.rewrite_bytes_per_line", "B", float64(a.bytes)/float64(lines), lines)
	var hits, misses int64
	for _, pr := range progs {
		hits += pr.CacheHits()
		misses += pr.CacheMisses()
	}
	p.m.set("cregex.memo_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	d, _ = p.measure("engine.prescan", each(func(wk *anonymizer.Anonymizer, name, text string) {
		wk.SafePrescan(name, text)
	}))
	p.m.set("engine.prescan_ns_per_line", "ns", float64(d.Nanoseconds())/float64(lines), lines)

	pl := passlist.Builtin()
	words := make([][]string, len(p.in.owners))
	for _, g := range p.in.groups {
		for _, name := range g.names {
			for _, line := range strings.Split(g.files[name], "\n") {
				ws, _ := token.Fields(line)
				for _, w := range ws {
					if token.Classify(w) == token.Word && !pl.Contains(w) {
						words[g.owner] = append(words[g.owner], w)
					}
				}
			}
		}
	}
	calls := 0
	d, _ = p.measure("engine.hashword", func() {
		for o, ws := range words {
			wk := sessions[o].Acquire()
			for _, w := range ws {
				sink += len(wk.HashWord(w))
			}
			calls += len(ws)
			sessions[o].Release(wk)
		}
	})
	p.m.set("engine.hashword_ns", "ns", ratio(float64(d.Nanoseconds()), float64(calls)), calls)
}

// tokens drives the tokenizer over every input line.
func (p *pass) tokens() {
	var lines []string
	for _, g := range p.in.groups {
		for _, name := range g.names {
			lines = append(lines, strings.Split(strings.TrimSuffix(g.files[name], "\n"), "\n")...)
		}
	}
	d, a := p.measure("token.fields", func() {
		for _, l := range lines {
			words, _ := token.Fields(l)
			sink += len(words)
		}
	})
	p.perLine("token.fields_", d, a, len(lines))
}

// ipanon replays the corpus's mapper calls, in first-seen order, into a
// fresh shaped tree per owner (inserts), again into the resolved trees
// (lookups), and into a Crypto-PAn mapper.
func (p *pass) ipanon(calls [][]mapCall) {
	n := 0
	trees := make([]*ipanon.Tree, len(calls))
	cryptos := make([]*ipanon.CryptoMapper, len(calls))
	for o, cs := range calls {
		n += len(cs)
		trees[o] = ipanon.NewTree(ipanon.DefaultOptions(p.in.owners[o].salt))
		cryptos[o] = ipanon.NewCryptoMapper(p.in.owners[o].salt)
	}
	replayAll := func(m func(o int) ipanon.Mapper) func() {
		return func() {
			for o, cs := range calls {
				replayCalls(m(o), cs)
			}
		}
	}
	tree := func(o int) ipanon.Mapper { return trees[o] }
	insert := p.span("ipanon.tree.insert", p.root, replayAll(tree))
	lookup := p.span("ipanon.tree.lookup", p.root, replayAll(tree))
	crypto := p.span("ipanon.cryptopan.map", p.root, replayAll(func(o int) ipanon.Mapper { return cryptos[o] }))
	var remaps int64
	for _, t := range trees {
		remaps += t.Remaps()
	}
	per := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	p.m.set("ipanon.tree.insert_ns", "ns", per(insert), n)
	p.m.set("ipanon.tree.lookup_ns", "ns", per(lookup), n)
	p.m.set("ipanon.tree.remaps", "count", float64(remaps), n)
	p.m.set("ipanon.cryptopan.map_ns", "ns", per(crypto), n)
}

// asnsOf extracts the AS numbers a corpus's BGP configuration names.
func asnsOf(files map[string]string) []uint32 {
	var out []uint32
	for _, text := range files {
		for _, line := range strings.Split(text, "\n") {
			ws, _ := token.Fields(line)
			for i := 0; i+1 < len(ws); i++ {
				switch ws[i] {
				case "remote-as", "local-as", "peer-as", "autonomous-system", "bgp":
					if v, err := strconv.ParseUint(strings.TrimSuffix(ws[i+1], ";"), 10, 32); err == nil {
						out = append(out, uint32(v))
					}
				}
			}
		}
	}
	return out
}

// asn drives the ASN permutation over the corpus's AS numbers.
func (p *pass) asn() {
	perms := make([]*asn.Perm, len(p.in.owners))
	asns := make([][]uint32, len(p.in.owners))
	var walks int64
	n := 0
	for o, ow := range p.in.owners {
		asns[o] = asnsOf(p.in.ownerFiles(o))
		perms[o] = asn.New(ow.salt)
		for _, a := range asns[o] {
			sink += int(perms[o].Map(a))
		}
		walks += perms[o].CycleWalks()
		n += len(asns[o])
	}
	// One pass is too short to time; repeat to about 100k maps.
	reps := 1 + 100_000/max(n, 1)
	d := p.span("asn.perm.map", p.root, func() {
		for r := 0; r < reps; r++ {
			for o, as := range asns {
				for _, a := range as {
					sink += int(perms[o].Map(a))
				}
			}
		}
	})
	p.m.set("asn.perm.map_ns", "ns", ratio(float64(d.Nanoseconds()), float64(reps*n)), reps*n)
	p.m.set("asn.cycle_walks", "count", float64(walks), n)
}

// regexpsOf extracts the AS-path regexps and community-list expressions
// of a corpus, in the IOS and JunOS forms netgen renders.
func regexpsOf(files map[string]string) (paths, comms []string) {
	for _, text := range files {
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) >= 6 && f[0] == "ip" && f[1] == "as-path" && f[2] == "access-list":
				paths = append(paths, strings.Join(f[5:], " "))
			case len(f) >= 5 && f[0] == "ip" && f[1] == "community-list":
				comms = append(comms, strings.Join(f[4:], " "))
			case len(f) >= 3 && f[0] == "as-path":
				paths = append(paths, strings.Trim(strings.Join(f[2:], " "), "\";"))
			case len(f) >= 4 && f[0] == "community" && f[2] == "members":
				comms = append(comms, strings.TrimSuffix(strings.Join(f[3:], " "), ";"))
			}
		}
	}
	return paths, comms
}

// cregex rewrites every regexp uncached: the engine memoizes rewrites in
// its Program, so this row is the cost of a miss.
func (p *pass) cregex() {
	type owned struct {
		paths, comms []string
		perm         *asn.Perm
		vals         *asn.ValuePerm
	}
	res := make([]owned, len(p.in.owners))
	n := 0
	for o, ow := range p.in.owners {
		paths, comms := regexpsOf(p.in.ownerFiles(o))
		res[o] = owned{paths, comms, asn.New(ow.salt), asn.NewValuePerm(ow.salt)}
		n += len(paths) + len(comms)
	}
	d := p.span("cregex.rewrite", p.root, func() {
		for _, x := range res {
			for _, re := range x.paths {
				out, _ := cregex.RewriteASN(re, x.perm.Map, cregex.Alternation)
				sink += len(out.Pattern)
			}
			for _, re := range x.comms {
				out, _ := cregex.RewriteCommunity(re, x.perm.Map, x.vals.Map, cregex.Alternation)
				sink += len(out.Pattern)
			}
		}
	})
	p.m.set("cregex.rewrite_ns", "ns", ratio(float64(d.Nanoseconds()), float64(n)), n)
}

// stateRecords flattens a replayed ledger state into the records a
// Session appends for it.
func stateRecords(s store.State) []store.Record {
	var recs []store.Record
	for _, ip := range s.IPs {
		recs = append(recs, store.Record{T: store.TIP, In: ip.In, Out: ip.Out})
	}
	for _, v := range s.ASNs {
		recs = append(recs, store.Record{T: store.TASN, V: v})
	}
	for _, v := range s.Words {
		recs = append(recs, store.Record{T: store.TWord, V: v})
	}
	for _, ip := range s.OrigIPs {
		recs = append(recs, store.Record{T: store.TOrigIP, In: ip})
	}
	for _, v := range s.Sensitive {
		recs = append(recs, store.Record{T: store.TSensitive, V: v})
	}
	for _, r := range s.Relations {
		recs = append(recs, store.Record{T: store.TRelation, ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
	}
	return recs
}

// store drives each owner's mapping ledger in the recording: it replays
// it (store.Open, which OpenMappingStore runs), appends the replayed
// records to a fresh ledger one file's share at a time, committing after
// each share as a Session commits at every clean file boundary, and then
// compacts the fresh ledger.
func (p *pass) store(recorded string) error {
	var commits []time.Duration
	var open, compact time.Duration
	for o, ow := range p.in.owners {
		fp := store.SaltFingerprint(ow.salt)
		var st store.State
		var err error
		open += p.span("store.open", p.root, func() {
			var led *store.Ledger
			if led, err = store.Open(filepath.Join(recorded, strconv.Itoa(o)), fp); err == nil {
				st = led.State()
				err = led.Close()
			}
		})
		if err != nil {
			return err
		}
		led, err := store.Open(filepath.Join(p.dir, "store", strconv.Itoa(o)), fp)
		if err != nil {
			return err
		}
		recs := stateRecords(st)
		per := max(1, len(recs)/max(1, len(p.in.ownerFiles(o))))
		for lo := 0; lo < len(recs) && err == nil; lo += per {
			share := recs[lo:min(lo+per, len(recs))]
			commits = append(commits, p.span("store.sync", p.root, func() {
				if err = led.Append(share...); err == nil {
					err = led.Commit()
				}
			}))
		}
		if err == nil {
			compact += p.span("store.compact", p.root, func() { err = led.Compact() })
		}
		if cerr := led.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	c := millis(commits)
	p.m.set("store.open_s", "s", open.Seconds(), len(p.in.owners))
	p.m.set("store.sync_ms_p50", "ms", median(c), len(c))
	p.m.set("store.sync_ms_p90", "ms", quantile(c, 0.9), len(c))
	p.m.set("store.compact_s", "s", compact.Seconds(), len(p.in.owners))
	return nil
}

// cache times decoding each owner's line cache in the recording and
// encoding it again.
func (p *pass) cache(recorded string) error {
	var enc, dec time.Duration
	for o := range p.in.owners {
		blob, err := os.ReadFile(filepath.Join(recorded, strconv.Itoa(o), cacheFile))
		if err != nil {
			return err
		}
		var c *confanon.CorpusCache
		dec += p.span("incremental.cache_decode", p.root, func() { c, err = confanon.DecodeCorpusCache(blob) })
		if err != nil {
			return fmt.Errorf("decoding the recorded line cache: %w", err)
		}
		enc += p.span("incremental.cache_encode", p.root, func() { _, err = c.Encode() })
		if err != nil {
			return err
		}
	}
	p.m.set("incremental.cache_encode_s", "s", enc.Seconds(), len(p.in.owners))
	p.m.set("incremental.cache_decode_s", "s", dec.Seconds(), len(p.in.owners))
	return nil
}
