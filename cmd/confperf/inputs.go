package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"confanon/internal/netgen"
)

// Workload shape. These are fixed rather than flags so that every run of
// one benchmark version measures the same thing; README.md gives the
// reasons for each value.
const (
	defaultLines   = 100_000 // batch corpus size in input lines
	batchNetworks  = 4       // ASes in the batch corpus
	batchWorkers   = 2       // = nproc of the recording host
	jobRate        = 10      // portal jobs per second, one at a time
	jobRouters     = 2       // routers uploaded per job
	jobRouterLines = 1000    // largest router a job uploads; see portalInputs
	portalOwners   = 8       // distinct owner salts submitting jobs
	sampleEvery    = 10      // every tenth job is fetched, scanned and traced
	// setup_s is the median of many set-ups per run: a batch set-up takes
	// well under a millisecond, a portal start some milliseconds.
	setupBlocks    = 5
	setupBlockReps = 20
	portalStarts   = 21
	// The portal's job loop runs in segments with a host calibration
	// before each (closedLoop).
	portalSegments = 10
)

// owner is one network owner: the salt its data is anonymized under and
// the identity tokens netgen planted in its configurations.
type owner struct {
	salt     []byte
	identity []string
}

// group is one unit of anonymization under one owner's salt: a whole AS
// for the batch workloads, one job's upload for portal-jobs.
type group struct {
	owner int
	label string
	files map[string]string
	names []string // sorted
	lines int
}

func newGroup(owner int, label string, files map[string]string) group {
	g := group{owner: owner, label: label, files: files}
	for name, text := range files {
		g.names = append(g.names, name)
		g.lines += countLines(text)
	}
	sort.Strings(g.names)
	return g
}

// inputs is the generated data one workload runs on.
type inputs struct {
	owners []owner
	groups []group
	lines  int
}

func (in *inputs) add(g group) {
	in.groups = append(in.groups, g)
	in.lines += g.lines
}

func (in *inputs) salt(g group) []byte { return in.owners[g.owner].salt }

// ownerFiles merges every group of owner o into one corpus.
func (in *inputs) ownerFiles(o int) map[string]string {
	files := make(map[string]string)
	for _, g := range in.groups {
		if g.owner == o {
			for name, text := range g.files {
				files[name] = text
			}
		}
	}
	return files
}

// hash writes the inputs into a digest: owner salts, then every group's
// files in order.
func (in *inputs) hash(w io.Writer) {
	for i, o := range in.owners {
		fmt.Fprintf(w, "owner %d %q %q\n", i, o.salt, o.identity)
	}
	for _, g := range in.groups {
		fmt.Fprintf(w, "group %d %q %d\n", g.owner, g.label, len(g.names))
		for _, name := range g.names {
			fmt.Fprintf(w, "file %q %d\n%s", name, len(g.files[name]), g.files[name])
		}
	}
}

// digest is the sha256 of a workload's name, shape and inputs: two runs
// with equal digests ran on identical data.
func digest(workload string, shape string, ins ...*inputs) string {
	h := sha256.New()
	fmt.Fprintf(h, "confperf %s %s\n", workload, shape)
	for _, in := range ins {
		in.hash(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func countLines(text string) int {
	n := strings.Count(text, "\n")
	if text != "" && !strings.HasSuffix(text, "\n") {
		n++
	}
	return n
}

// batchInputs generates the batch corpus: a 4-AS netgen corpus whose
// every AS is trimmed to target/4 lines, to within one router config.
// Sizing by lines rather than routers keeps one run's work the same
// across seeds (at a fixed router budget the line count varies by some
// ±6%). Sizing every AS alike keeps a run's peak memory the same: netgen
// splits its router budget between the ASes heavy-tailed, the ASes run
// one after another, and so the largest one sets the peak. The router
// budget grows until the smallest AS has its share; every AS then drops
// routers in an order fixed by a hash of their names, which keeps the
// mix of router roles (hostnames sort by role).
func batchInputs(seed int64, target int) *inputs {
	share := target / batchNetworks
	for routers := max(6*batchNetworks, target/350); ; routers += routers/4 + 1 { // netgen averages ~420 lines a router
		c := netgen.GenerateCorpus(netgen.CorpusParams{Seed: seed, Routers: routers, Networks: batchNetworks})
		in := &inputs{}
		for i, n := range c.Networks {
			g := newGroup(i, n.Params.Name, n.RenderAll())
			if g.lines < share {
				break
			}
			g.trim(share)
			in.owners = append(in.owners, owner{salt: []byte(n.Salt), identity: c.IdentityTokens(i)})
			in.add(g)
		}
		if len(in.groups) == batchNetworks {
			// Return the discarded routers' memory, so it does not count in
			// the runs' peak RSS.
			debug.FreeOSMemory()
			return in
		}
	}
}

// trim drops routers from g, in the order of the sha256 of their names,
// while it keeps at least lines lines.
func (g *group) trim(lines int) {
	order := slices.Clone(g.names)
	sort.Slice(order, func(a, b int) bool {
		ha, hb := sha256.Sum256([]byte(order[a])), sha256.Sum256([]byte(order[b]))
		return bytes.Compare(ha[:], hb[:]) < 0
	})
	for _, name := range order {
		if n := countLines(g.files[name]); g.lines-n >= lines {
			delete(g.files, name)
			g.lines -= n
		}
	}
	g.names = slices.DeleteFunc(g.names, func(name string) bool {
		_, ok := g.files[name]
		return !ok
	})
}

// editOnePercent returns a copy of in where the middle line of the first
// K files of each AS is replaced, K = ceil(2% of its files). An edit
// invalidates the file's cached tail from that line on, so about 1% of
// the corpus's lines must be rewritten (as in BenchmarkIncremental).
func editOnePercent(in *inputs) *inputs {
	out := &inputs{owners: in.owners}
	for _, g := range in.groups {
		files := make(map[string]string, len(g.files))
		for name, text := range g.files {
			files[name] = text
		}
		k := min((2*len(g.names)+99)/100, len(g.names))
		for i, name := range g.names[:k] {
			ls := strings.Split(files[name], "\n")
			ls[len(ls)/2] = fmt.Sprintf(" description bench-edit 10.200.%d.1", i)
			files[name] = strings.Join(ls, "\n")
		}
		out.add(newGroup(g.owner, g.label, files))
	}
	return out
}

// portalInputs generates jobs portal uploads: an 8-owner netgen corpus
// large enough that no router is uploaded twice, cut into jobs of
// jobRouters routers each and dealt to the owners in turn. Only routers
// of at most jobRouterLines lines are uploaded. netgen's router sizes
// are bimodal: most routers have 100-300 lines, and about one in eight
// (the core routers) has 1,000-4,000. With those in the mix about a
// quarter of the jobs would be ten times larger than the rest, and how
// many there are varies with the seed, so the percentiles would measure
// the seed's job mix more than the portal.
func portalInputs(seed int64, jobs int) *inputs {
	for routers := jobRouters*jobs*5/4 + 2*portalOwners; ; routers += routers / 4 {
		if in := dealJobs(netgen.GenerateCorpus(netgen.CorpusParams{
			Seed:     seed,
			Routers:  routers,
			Networks: portalOwners,
		}), jobs); len(in.groups) == jobs {
			return in
		}
	}
}

// dealJobs cuts a corpus into at most jobs uploads, as portalInputs
// describes.
func dealJobs(c *netgen.Corpus, jobs int) *inputs {
	in := &inputs{}
	queues := make([][]map[string]string, len(c.Networks))
	for i, n := range c.Networks {
		in.owners = append(in.owners, owner{salt: []byte(n.Salt), identity: c.IdentityTokens(i)})
		files := n.RenderAll()
		names := make([]string, 0, len(files))
		for name, text := range files {
			if countLines(text) <= jobRouterLines {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for j := 0; j < len(names); j += jobRouters {
			chunk := make(map[string]string, jobRouters)
			for _, name := range names[j:min(j+jobRouters, len(names))] {
				chunk[name] = files[name]
			}
			queues[i] = append(queues[i], chunk)
		}
	}
	for dealt := true; dealt && len(in.groups) < jobs; {
		dealt = false
		for o := range queues {
			if len(queues[o]) == 0 || len(in.groups) == jobs {
				continue
			}
			in.add(newGroup(o, fmt.Sprintf("job-%05d", len(in.groups)), queues[o][0]))
			queues[o] = queues[o][1:]
			dealt = true
		}
	}
	return in
}

// sampled returns every sampleEvery-th job of in: the jobs whose
// datasets are fetched and which feed the traced pass.
func sampled(in *inputs) *inputs {
	out := &inputs{owners: in.owners}
	for i := 0; i < len(in.groups); i += sampleEvery {
		out.add(in.groups[i])
	}
	return out
}
