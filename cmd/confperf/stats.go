package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one measured value with its unit and the number of samples
// behind it (runs, jobs, calls or lines, depending on the metric).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// quantile returns the q-quantile of xs, linearly interpolated between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSS returns process pid's peak resident set size in MiB (VmHWM)
// since it started or since the last resetPeakRSS.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts process pid's peak resident set size from its
// current resident set size.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procCPU returns process pid's CPU time so far, all its threads
// included, from the process's POSIX CPU clock (nanosecond resolution,
// where /proc/PID/stat counts in 10 ms ticks).
func procCPU(pid int) (time.Duration, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) in the kernel's terms.
	clock := int32(^pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// allocCounter snapshots the heap's cumulative allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

// gcCPU returns runtime/metrics' cumulative CPU-time estimates: the
// garbage collector's, the total available (GOMAXPROCS × wall time), and
// the idle part of that total.
func gcCPU() (gc, total, idle float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v[0], v[1], v[2]
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021997:
		return "9p"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
