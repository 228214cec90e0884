package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"confanon"
)

// batchOp is one batch workload: a set-up step (Compile + NewSession
// for every AS, what a run pays before its first line) and one timed run
// of the workload's operation, checked against a reference computed once
// beforehand.
type batchOp interface {
	setup()
	run() (wall time.Duration, attempted, failed int, err error)
}

// measureBatch times the set-up in setupBlocks blocks of setupBlockReps,
// one warm-up run, then back-to-back runs (a closed loop with one
// caller) until the window has passed, and records the end-to-end
// metrics. Every run is checked, and every timing is normalized by a
// calibration taken just before it (calibrate.go); the raw timings are
// kept as raw.* metrics. Peak RSS is each run's own peak, so the work of
// computing the references before the window does not count.
func measureBatch(op batchOp, lines int, window time.Duration, r *result) error {
	var setups, rawSetups []float64
	for b := 0; b < setupBlocks; b++ {
		cal := calibrate()
		// A block allocates a few MB; starting it on a collected heap keeps
		// a GC cycle from overlapping some blocks and not others.
		runtime.GC()
		for i := 0; i < setupBlockReps; i++ {
			t0 := time.Now()
			op.setup()
			d := time.Since(t0)
			rawSetups = append(rawSetups, d.Seconds())
			setups = append(setups, normalize(d, cal).Seconds())
		}
	}
	_, a, f, err := op.run()
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	r.count(a, f)
	self := os.Getpid()
	var walls, raws, cals, peaks []float64
	for start := time.Now(); time.Since(start) < window || len(walls) == 0; {
		cal := calibrate()
		if err := resetPeakRSS(self); err != nil {
			return err
		}
		d, a, f, err := op.run()
		if err != nil {
			return err
		}
		peak, err := peakRSS(self)
		if err != nil {
			return err
		}
		r.count(a, f)
		raws = append(raws, d.Seconds())
		walls = append(walls, normalize(d, cal).Seconds())
		cals = append(cals, cal.Seconds()*1e3)
		peaks = append(peaks, peak)
	}
	med, raw := median(walls), median(raws)
	m := r.Metrics
	m.set("setup_s", "s", median(setups), len(setups))
	m.set("lines_per_s", "lines/s", float64(lines)/med, len(walls))
	m.set("op_ms_p50", "ms", med*1e3, len(walls))
	m.set("op_ms_p75", "ms", quantile(walls, 0.75)*1e3, len(walls))
	m.set("peak_rss_mb", "MB", median(peaks), len(peaks))
	m.set("raw.setup_s", "s", median(rawSetups), len(rawSetups))
	m.set("raw.lines_per_s", "lines/s", float64(lines)/raw, len(raws))
	m.set("raw.op_ms_p50", "ms", raw*1e3, len(raws))
	m.set("raw.op_ms_p75", "ms", quantile(raws, 0.75)*1e3, len(raws))
	m.set("host.calibration_ms", "ms", median(cals), len(cals))
	return nil
}

func strictOpts(salt []byte) confanon.Options {
	return confanon.Options{Salt: salt, Strict: true}
}

func statelessOpts(salt []byte) confanon.Options {
	return confanon.Options{Salt: salt, StatelessIP: true}
}

// compileAll is the set-up step shared by the batch workloads.
func compileAll(in *inputs, opts func([]byte) confanon.Options) {
	for _, g := range in.groups {
		confanon.Compile(opts(in.salt(g))).NewSession()
	}
}

// checkFiles compares a corpus result with the reference outputs: every
// reference file must be published with identical bytes, and no other
// file may appear.
func checkFiles(res *confanon.CorpusResult, want map[string]string) (attempted, failed int) {
	for name, text := range want {
		attempted++
		if fr, ok := res.Files[name]; !ok || !fr.Ok() || fr.Text != text {
			failed++
		}
	}
	for name := range res.Files {
		if _, ok := want[name]; !ok {
			attempted++
			failed++
		}
	}
	return attempted, failed
}

// cleanOutputs returns a reference run's outputs, refusing a run that
// quarantined or failed any file: a workload must be one on which no
// operation fails.
func cleanOutputs(label string, res *confanon.CorpusResult) (map[string]string, error) {
	if !res.Ok() {
		return nil, fmt.Errorf("%s: reference run quarantined %d and failed %d files", label, len(res.Quarantined()), len(res.Failed()))
	}
	return res.Outputs(), nil
}

// corruptOne flips one byte of one published output, for the test that
// the correctness check catches it.
func corruptOne(res *confanon.CorpusResult) {
	for name, fr := range res.Files {
		if fr.Ok() && fr.Text != "" {
			b := []byte(fr.Text)
			b[len(b)/2] ^= 1
			fr.Text = string(b)
			res.Files[name] = fr
			return
		}
	}
}

// strictOp is corpus-strict: `confanon -strict -workers 2` on every AS.
type strictOp struct {
	in      *inputs
	want    []map[string]string
	corrupt bool
}

// newStrictOp computes the reference: the serial CorpusContext output,
// which the parallel driver must reproduce byte for byte.
func newStrictOp(in *inputs, corrupt bool) (*strictOp, error) {
	o := &strictOp{in: in, corrupt: corrupt}
	for _, g := range in.groups {
		res, err := confanon.Compile(strictOpts(in.salt(g))).NewSession().CorpusContext(context.Background(), g.files)
		if err != nil {
			return nil, err
		}
		want, err := cleanOutputs(g.label, res)
		if err != nil {
			return nil, err
		}
		o.want = append(o.want, want)
	}
	return o, nil
}

func (o *strictOp) setup() { compileAll(o.in, strictOpts) }

func (o *strictOp) run() (time.Duration, int, int, error) {
	results := make([]*confanon.CorpusResult, len(o.in.groups))
	t0 := time.Now()
	for i, g := range o.in.groups {
		res, err := confanon.Compile(strictOpts(o.in.salt(g))).NewSession().ParallelCorpusContext(context.Background(), g.files, batchWorkers)
		if err != nil {
			return 0, 0, 0, err
		}
		results[i] = res
	}
	wall := time.Since(t0)
	if o.corrupt {
		corruptOne(results[0])
	}
	attempted, failed := 0, 0
	for i, res := range results {
		a, f := checkFiles(res, o.want[i])
		attempted += a
		failed += f
	}
	return wall, attempted, failed, nil
}

// streamOp is stream-stateless: the single-pass engine under Crypto-PAn,
// one goroutine per AS, into a sink that only digests the output.
type streamOp struct {
	in   *inputs
	want []map[string][sha256.Size]byte
}

// newStreamOp computes the reference: per-file File() output on one
// session, in sorted name order, which streaming must reproduce.
func newStreamOp(in *inputs) *streamOp {
	o := &streamOp{in: in}
	for _, g := range in.groups {
		a := confanon.Compile(statelessOpts(in.salt(g))).NewSession()
		want := make(map[string][sha256.Size]byte, len(g.names))
		for _, name := range g.names {
			want[name] = sha256.Sum256([]byte(a.File(g.files[name])))
		}
		o.want = append(o.want, want)
	}
	return o
}

func (o *streamOp) setup() { compileAll(o.in, statelessOpts) }

// digestSink is a stream sink that keeps only the sha256 of each file.
type digestSink struct {
	hash.Hash
	name string
	into map[string][sha256.Size]byte
}

func (s *digestSink) Close() error {
	var sum [sha256.Size]byte
	copy(sum[:], s.Sum(nil))
	s.into[s.name] = sum
	return nil
}

func (o *streamOp) run() (time.Duration, int, int, error) {
	got := make([]map[string][sha256.Size]byte, len(o.in.groups))
	t0 := time.Now()
	for i, g := range o.in.groups {
		a := confanon.Compile(statelessOpts(o.in.salt(g))).NewSession()
		sums := make(map[string][sha256.Size]byte, len(g.names))
		k := 0
		next := func() (string, io.Reader, error) {
			if k == len(g.names) {
				return "", nil, io.EOF
			}
			k++
			return g.names[k-1], strings.NewReader(g.files[g.names[k-1]]), nil
		}
		sink := func(name string) (io.WriteCloser, error) {
			return &digestSink{Hash: sha256.New(), name: name, into: sums}, nil
		}
		// Per-file failures surface as missing or wrong digests below.
		if _, err := a.StreamCorpusContext(context.Background(), next, sink); err != nil {
			return 0, 0, 0, err
		}
		got[i] = sums
	}
	wall := time.Since(t0)
	attempted, failed := 0, 0
	for i, want := range o.want {
		for name, sum := range want {
			attempted++
			if got[i][name] != sum {
				failed++
			}
		}
	}
	return wall, attempted, failed, nil
}

// cacheFile is the incremental line cache's name inside a state dir, as
// `confanon -state-dir -incremental` lays it out.
const cacheFile = "filecache.json"

// incrementalOp is incremental-1pct: one `confanon -state-dir DIR
// -incremental -workers 2` invocation per AS on a 1%-edited corpus,
// each run starting from the same recorded state.
type incrementalOp struct {
	edited   *inputs
	pristine string // recorded state, one subdirectory per AS
	scratch  string // per-run copy of the ledgers
	want     []map[string]string
	reused   float64 // last run's reused share of lines
}

// withStore runs f on a strict Session attached to the mapping ledger in
// dir, as `confanon -strict -state-dir DIR` does, and closes the ledger.
func withStore(dir string, salt []byte, f func(a *confanon.Anonymizer) error) (err error) {
	ms, err := confanon.OpenMappingStore(dir, salt)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ms.Close(); err == nil {
			err = cerr
		}
	}()
	a := confanon.Compile(strictOpts(salt)).NewSession()
	if err := a.UseStore(ms); err != nil {
		return err
	}
	if err := f(a); err != nil {
		return err
	}
	return a.SyncStore()
}

// record runs `confanon -strict -state-dir DIR -incremental -workers 2`
// once over each owner's files, untimed, leaving the owner's mapping
// ledger and line cache in dir/<owner>.
func record(in *inputs, dir string) error {
	for o, ow := range in.owners {
		sdir := filepath.Join(dir, strconv.Itoa(o))
		err := withStore(sdir, ow.salt, func(a *confanon.Anonymizer) error {
			_, cache, err := a.IncrementalCorpusContext(context.Background(), in.ownerFiles(o), nil, batchWorkers)
			if err != nil {
				return err
			}
			blob, err := cache.Encode()
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(sdir, cacheFile), blob, 0o600)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// newIncrementalOp records the unedited corpus, then computes the
// reference: ParallelCorpusContext over the edited corpus on a session
// restored from the same state.
func newIncrementalOp(in, edited *inputs, dir string) (*incrementalOp, error) {
	o := &incrementalOp{
		edited:   edited,
		pristine: filepath.Join(dir, "pristine"),
		scratch:  filepath.Join(dir, "run"),
		want:     make([]map[string]string, len(edited.groups)),
	}
	if err := record(in, o.pristine); err != nil {
		return nil, err
	}
	if err := o.resetLedgers(); err != nil {
		return nil, err
	}
	for i, g := range edited.groups {
		err := withStore(filepath.Join(o.scratch, strconv.Itoa(g.owner)), edited.salt(g), func(a *confanon.Anonymizer) error {
			res, err := a.ParallelCorpusContext(context.Background(), g.files, batchWorkers)
			if err != nil {
				return err
			}
			o.want[i], err = cleanOutputs(g.label, res)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// resetLedgers replaces the scratch ledgers with fresh copies of the
// recorded ones. The line cache is read from the pristine dir directly.
func (o *incrementalOp) resetLedgers() error {
	if err := os.RemoveAll(o.scratch); err != nil {
		return err
	}
	for k := range o.edited.owners {
		src := filepath.Join(o.pristine, strconv.Itoa(k))
		dst := filepath.Join(o.scratch, strconv.Itoa(k))
		if err := os.MkdirAll(dst, 0o700); err != nil {
			return err
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.Name() == cacheFile || !e.Type().IsRegular() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
				return err
			}
		}
	}
	return nil
}

func (o *incrementalOp) setup() { compileAll(o.edited, strictOpts) }

func (o *incrementalOp) run() (time.Duration, int, int, error) {
	if err := o.resetLedgers(); err != nil {
		return 0, 0, 0, err
	}
	ctx := context.Background()
	results := make([]*confanon.CorpusResult, len(o.edited.groups))
	t0 := time.Now()
	for i, g := range o.edited.groups {
		err := withStore(filepath.Join(o.scratch, strconv.Itoa(g.owner)), o.edited.salt(g), func(a *confanon.Anonymizer) error {
			blob, err := os.ReadFile(filepath.Join(o.pristine, strconv.Itoa(g.owner), cacheFile))
			if err != nil {
				return err
			}
			prior, err := confanon.DecodeCorpusCache(blob)
			if err != nil {
				return err
			}
			res, next, err := a.IncrementalCorpusContext(ctx, g.files, prior, batchWorkers)
			if err != nil {
				return err
			}
			results[i] = res
			_, err = next.Encode()
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
	}
	wall := time.Since(t0)
	attempted, failed, reused, total := 0, 0, 0, 0
	for i, res := range results {
		a, f := checkFiles(res, o.want[i])
		attempted += a
		failed += f
		reused += res.Incremental.LinesReused
		total += res.Incremental.LinesReused + res.Incremental.LinesRewritten
	}
	o.reused = ratio(float64(reused), float64(total))
	return wall, attempted, failed, nil
}
