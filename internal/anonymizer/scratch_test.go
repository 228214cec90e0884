package anonymizer

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"confanon/internal/rulepack"
	"confanon/internal/trace"
)

// scratchPack gives the scratch tests a pack line rule and a pack token
// rule to fire.
const scratchPack = `{
	"schema": "confanon.rulepack/v1",
	"name": "scratch",
	"version": "0.1.0",
	"rules": [
		{"id": "sc-widget", "class": "name", "scope": "line", "keys": ["widget"], "action": "hash-segments", "doc": "x"},
		{"id": "sc-mac", "class": "misc", "scope": "token", "action": "mac", "doc": "x",
		 "match": {"pattern": "[0-9a-f][0-9a-f]:[0-9a-f][0-9a-f]:[0-9a-f][0-9a-f]:[0-9a-f][0-9a-f]:[0-9a-f][0-9a-f]:[0-9a-f][0-9a-f]"}}
	]
}`

// wideConfig has lines of many words and long compound hostnames, so
// the worker's token, generic and word buffers grow large.
func wideConfig(tag string) string {
	var b strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "interface GigabitEthernet%d/0/0.%d\n", i, 100+i)
		fmt.Fprintf(&b, " ip address 12.%d.%d.1 255.255.255.252\n", i, 40+i)
		fmt.Fprintf(&b, " ip access-group %s-edge-filter-%d in\n", tag, i)
		b.WriteString(" tag")
		for j := 0; j < 40; j++ {
			fmt.Fprintf(&b, " srv%d.pop%d-edge%d.%s-corp.example;", j, i, j%7, tag)
		}
		b.WriteString(" 10.9.8.7 10.0.0.0/8 701:100 noc@acme.example\n")
	}
	b.WriteString("router bgp 701\n")
	for j := 0; j < 12; j++ {
		fmt.Fprintf(&b, " neighbor 12.0.%d.1 remote-as %d\n", j, 7018+j)
	}
	b.WriteString("access-list 101 permit tcp 10.1.0.0 0.0.255.255 host 192.168.77.1 eq 22 log\n")
	b.WriteString("route-map acme-peer-out permit 10\n set community 701:100 701:200 701:300 701:400 additive\n")
	fmt.Fprintf(&b, "hostname core-%s.very-long-segment.sfo-pop7.example-backbone.net\n", tag)
	return b.String()
}

// narrowConfig has short lines of one or two words. Like wideConfig it
// starts with words the generic pass rewrites, before any line rule
// has touched the worker's buffers in this file.
func narrowConfig(tag string) string {
	return "x.y\nq-r\n!\ninterface Loopback0\n ip address 12.1.1.1 255.255.255.255\n" +
		" description x\n shutdown\n!\nrouter rip\n network 10.0.0.0\nhostname " + tag + "\nend\n"
}

// scratchFiles are the files TestWorkerScratchIsInvisible runs, in order.
func scratchFiles(t *testing.T) [][2]string {
	jun, err := os.ReadFile("../../testdata/golden/in/jr1-confg")
	if err != nil {
		t.Fatal(err)
	}
	return [][2]string{
		{"wide-a", wideConfig("acme")},
		{"narrow-a", narrowConfig("edge1")},
		{"narrow-b", narrowConfig("edge2")},
		{"wide-b", wideConfig("globex")},
		{"junos", string(jun)},
		{"banner", "hostname br1\nbanner motd ^C\nAuthorized access only: ACME Corp\x85property\n" +
			"call +1 415 555 0100 \v noc@acme.example\n^C\nbanner login #short text#\ninterface Serial0/1\n ip address 12.9.9.1 255.255.255.0\n"},
		{"pack", "widget pop1.acme.example\ninterface Ethernet0\n mac-address 01:00:5e:aa:bb:cc\n ip address 12.7.7.7 255.255.255.0\n"},
	}
}

// scratchRun is what one file leaves behind: its output, the Session's
// Stats (rule times zeroed: they are wall time), its recorder and the
// decisions the file published.
type scratchRun struct {
	out         string
	stats       Stats
	words, asns map[string]bool
	ips         map[uint32]bool
	decisions   []trace.Decision
	failed      *FileError
}

func runScratchFile(s *Session, wk *Anonymizer, tr *trace.Tracer, name, text string) scratchRun {
	var r scratchRun
	before := len(tr.Ledger())
	r.out, r.failed = wk.SafeAnonymizeText(name, text)
	r.stats = s.Stats()
	r.stats.ruleTimeNs = [maxRules]int64{}
	r.stats.rules = nil // each Program compiles its own rule set; compare the counts
	s.recMu.RLock()
	r.words, r.asns, r.ips = maps.Clone(s.seenWords), maps.Clone(s.seenASNs), maps.Clone(s.seenIPs)
	s.recMu.RUnlock()
	r.decisions = tr.Ledger()[before:]
	for i := range r.decisions {
		r.decisions[i].Span = 0 // span ids count every span the tracer opened
	}
	return r
}

// TestWorkerScratchIsInvisible: a worker's per-line buffers carry
// nothing from one line or file into the next. One worker runs wide,
// narrow, narrow and wide files (so its buffers shrink and grow back
// over stale contents), then a JunOS file, a multi-line banner and a
// file where pack rules fire; after each file its output, the
// Session's Stats, the leak recorder and the traced decisions must
// equal those of a Session whose every file ran on a fresh worker.
func TestWorkerScratchIsInvisible(t *testing.T) {
	packs := []*rulepack.Pack{mustPack(t, scratchPack)}
	for _, stateless := range []bool{false, true} {
		t.Run(fmt.Sprintf("stateless=%v", stateless), func(t *testing.T) {
			reusedTr, freshTr := trace.NewTracer(), trace.NewTracer()
			opts := Options{Salt: []byte("scratch"), StatelessIP: stateless, RulePacks: packs}
			opts.Tracer = reusedTr
			reused := Compile(opts).NewSession()
			opts.Tracer = freshTr
			fresh := Compile(opts).NewSession()
			wk := reused.Acquire()
			defer reused.Release(wk)
			for _, f := range scratchFiles(t) {
				got := runScratchFile(reused, wk, reusedTr, f[0], f[1])
				want := runScratchFile(fresh, fresh.newWorker(), freshTr, f[0], f[1])
				if got.failed != nil || want.failed != nil {
					t.Fatalf("%s: failed: reused %v, fresh %v", f[0], got.failed, want.failed)
				}
				if got.out != want.out {
					t.Fatalf("%s: output differs on a reused worker:\n%s\nfresh:\n%s", f[0], got.out, want.out)
				}
				if got.stats != want.stats {
					t.Errorf("%s: stats differ: reused %+v, fresh %+v", f[0], got.stats, want.stats)
				}
				if !maps.Equal(got.words, want.words) || !maps.Equal(got.asns, want.asns) || !maps.Equal(got.ips, want.ips) {
					t.Errorf("%s: leak recorder differs on a reused worker", f[0])
				}
				if !slices.Equal(got.decisions, want.decisions) {
					t.Errorf("%s: decisions differ:\nreused %v\nfresh  %v", f[0], got.decisions, want.decisions)
				}
			}
			if st := reused.Stats(); st.Hits(RuleBanner) == 0 || st.Hits("sc-widget") == 0 || st.Hits("sc-mac") == 0 ||
				st.Hits(RuleSegmentWords) == 0 || st.Hits(RuleBGPProcess) == 0 {
				t.Errorf("the files no longer reach the banner, pack, segmentation and BGP rules: %v", st.RuleHits())
			}
		})
	}
}
