package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"
)

// On a shared host the speed of memory-heavy code drifts over minutes
// (by up to 1.8x between two sets of runs on the recording host), while
// cache-resident code barely moves. So the workloads time a fixed
// calibration kernel next to their runs and scale their times by it. A
// batch run's normalized time is its wall time × calibrationRef ÷ the
// calibration time measured just before it: the time the run would have
// taken at the recording host's typical speed. The portal's CPU times
// are scaled by portalScale. The kernel shares no code with confanon,
// so a change to the program under test cannot move it; it allocates
// strings and maps much as the engine does, so it slows down with the
// engine when the host does. Changing the kernel, calibrationRef or
// portalElasticity changes every normalized metric: it is a benchmark
// change of its own.

// calibrationRef is the kernel's median time on the recording host
// (2 vCPUs of an Intel Xeon, Go 1.24).
const calibrationRef = 22 * time.Millisecond

// calText is the kernel's fixed input: 10,000 config-like lines.
var calText = func() []string {
	words := []string{"interface", "ip", "address", "router", "bgp", "neighbor", "remote-as",
		"description", "permit", "deny", "access-list", "route-map", "match", "set",
		"community", "hostname", "logging", "snmp-server", "ntp", "server"}
	rng := rand.New(rand.NewSource(42))
	lines := make([]string, 10000)
	for i := range lines {
		var b strings.Builder
		for j := 3 + rng.Intn(6); j > 0; j-- {
			b.WriteString(words[rng.Intn(len(words))])
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, " %d.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
			}
			b.WriteByte(' ')
		}
		lines[i] = b.String()
	}
	return lines
}()

// kernel tokenizes, counts, rewrites and sorts calText once.
func kernel() {
	counts := make(map[string]int)
	out := make([]string, 0, len(calText))
	for _, l := range calText {
		f := strings.Fields(l)
		for i, w := range f {
			w = strings.ToUpper(w)
			counts[w]++
			f[i] = w
		}
		out = append(out, strings.Join(f, " "))
	}
	sort.Strings(out)
	sink += len(counts) + len(out)
}

// calibrate collects garbage, so neither the kernel nor the next run
// pays for an earlier run's, then returns the median of three timed
// kernel runs.
func calibrate() time.Duration {
	runtime.GC()
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		kernel()
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts))
}

// normalize scales a duration measured next to calibration time cal to
// the recording host's typical speed.
func normalize(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibrationRef) / float64(cal))
}

// portalElasticity is how the portal server's CPU time per job follows
// the calibration on the recording host: where the calibration drifted
// from 23 to 32 ms within ten runs, scaling by (calibrationRef ÷ cal) to
// the power 0.5-0.6 left the least spread between the runs (README.md
// gives the runs). A job spends part of its CPU time in system calls
// (loopback HTTP, file writes, fsync), which the host's drift moves less
// than it moves the kernel, so scaling fully over-corrects.
const portalElasticity = 0.6

// portalScale is the factor that brings a portal CPU time measured at
// calibration cal to the recording host's typical speed.
func portalScale(cal time.Duration) float64 {
	return math.Pow(float64(calibrationRef)/float64(cal), portalElasticity)
}
