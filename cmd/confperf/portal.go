package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	pollInterval  = 5 * time.Millisecond // GET /jobs/{id} spacing; the wall-time resolution
	jobTimeout    = 60 * time.Second     // a job not done this long after it was sent has failed
	researcherKey = "confperf-researcher"
)

// portalProc is one running confportal child.
type portalProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startPortal execs confportal on stateDir and returns once /readyz
// answers 200, with the wall time that took and the CPU time the portal
// had used by then.
func startPortal(bin, stateDir string) (*portalProc, time.Duration, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-state-dir", stateDir,
		"-job-workers", strconv.Itoa(batchWorkers),
		"-owner-jobs", "0",
		"-owner-rate", "0",
		"-drain-notice", "0s",
		"-researcher", researcherKey+"=confperf")
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("starting confportal: %w", err)
	}
	p := &portalProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-p.done:
			p.done <- err
			return nil, 0, 0, fmt.Errorf("confportal exited before it was ready: %v", err)
		default:
		}
		if resp, err := probe.Get(p.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				wall := time.Since(t0)
				cpu, err := procCPU(cmd.Process.Pid)
				if err != nil {
					p.stop()
					return nil, 0, 0, err
				}
				return p, wall, cpu, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			p.stop()
			return nil, 0, 0, fmt.Errorf("confportal not ready after 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains the portal with SIGTERM and waits for it to exit.
func (p *portalProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("confportal: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("confportal did not drain within 60s")
	}
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	cpu       time.Duration // the server's CPU time from the submit to the poll that saw the job end
	wall      time.Duration // submit → first poll "done"
	submit    time.Duration // POST /jobs round trip
	queueWait time.Duration // 202 → first poll not "queued"
	run       time.Duration // that poll → first poll "done"
	dataset   string        // set when the job published a dataset
}

// client is the load generator: one process, one connection, one job at
// a time (a closed loop).
type client struct {
	base string
	pid  int // the server's, whose CPU time each job is charged
	http *http.Client
}

func newClient(base string, pid int) *client {
	return &client{
		base: base,
		pid:  pid,
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
	}
}

// closedLoop runs the jobs one at a time in portalSegments segments,
// calibrating the host (calibrate.go) before each, so the calibrations
// span the window without competing with a job for the processors.
// Within a segment job i is sent 1/jobRate seconds after job i−1 was, or
// as soon as job i−1 has ended if that is later. With one job in the
// server at a time, the server's CPU time over a job's life is that
// job's alone. It returns every job's record and the calibrations.
func (c *client) closedLoop(bodies [][]byte) ([]jobRecord, []time.Duration, error) {
	recs := make([]jobRecord, len(bodies))
	var cals []time.Duration
	interval := time.Second / jobRate
	per := (len(bodies) + portalSegments - 1) / portalSegments
	for lo := 0; lo < len(bodies); lo += per {
		cals = append(cals, calibrate())
		next := time.Now()
		for i := lo; i < min(lo+per, len(bodies)); i++ {
			time.Sleep(time.Until(next))
			next = time.Now().Add(interval)
			rec, err := c.job(bodies[i])
			if err != nil {
				return nil, nil, err
			}
			recs[i] = rec
		}
	}
	return recs, cals, nil
}

// get returns the body of a 200 response to GET path.
func (c *client) get(path string, header http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header = header
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// job submits one job and polls it every pollInterval until it ends. A
// record without a dataset means the job failed; the error is for a
// failure to measure.
func (c *client) job(body []byte) (jobRecord, error) {
	var rec jobRecord
	cpu0, err := procCPU(c.pid)
	if err != nil {
		return rec, err
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, nil
	}
	var sub struct {
		ID    string `json:"job_id"`
		Token string `json:"job_token"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rec.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return rec, nil
	}
	accepted := time.Now()
	var started time.Time
	header := http.Header{"X-Job-Token": {sub.Token}}
	for time.Since(t0) < jobTimeout {
		var v struct {
			State     string `json:"state"`
			DatasetID string `json:"dataset_id"`
		}
		body, err := c.get("/jobs/"+url.PathEscape(sub.ID), header)
		if err != nil || json.Unmarshal(body, &v) != nil {
			return rec, nil
		}
		now := time.Now()
		if v.State != "queued" && started.IsZero() {
			started = now
			rec.queueWait = now.Sub(accepted)
		}
		switch v.State {
		case "done":
			cpu1, err := procCPU(c.pid)
			if err != nil {
				return rec, err
			}
			rec.cpu = cpu1 - cpu0
			rec.run = now.Sub(started)
			rec.wall = now.Sub(t0)
			rec.dataset = v.DatasetID
			return rec, nil
		case "failed", "cancelled", "interrupted":
			return rec, nil
		}
		time.Sleep(pollInterval)
	}
	return rec, nil
}

// leaks fetches one published dataset as a researcher and reports
// whether any planted identity token survives in it.
func (c *client) leaks(dataset string, identity []string) (bool, error) {
	header := http.Header{"X-Api-Key": {researcherKey}}
	base := "/datasets/" + url.PathEscape(dataset) + "/files"
	body, err := c.get(base, header)
	if err != nil {
		return false, err
	}
	var names []string
	if err := json.Unmarshal(body, &names); err != nil {
		return false, err
	}
	for _, name := range names {
		text, err := c.get(base+"/"+url.PathEscape(name), header)
		if err != nil {
			return false, err
		}
		for _, tok := range identity {
			if tok != "" && bytes.Contains(text, []byte(tok)) {
				return true, nil
			}
		}
	}
	return false, nil
}

// measurePortal runs portal-jobs: portalStarts portal starts (the last one
// is the server under test), the closed loop, then a researcher's scan of
// every sampleEvery-th job's dataset for planted identity tokens.
func measurePortal(bin string, in *inputs, dir string, r *result) error {
	bodies := make([][]byte, len(in.groups))
	for i, g := range in.groups {
		b, err := json.Marshal(map[string]any{
			"label": g.label,
			"salt":  string(in.salt(g)),
			"files": g.files,
		})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	var setups, starts []float64
	var srv *portalProc
	for i := 0; i < portalStarts; i++ {
		p, wall, cpu, err := startPortal(bin, filepath.Join(dir, "portal-state-"+strconv.Itoa(i)))
		if err != nil {
			return err
		}
		setups = append(setups, cpu.Seconds())
		starts = append(starts, wall.Seconds())
		if i == portalStarts-1 {
			srv = p
		} else if err := p.stop(); err != nil {
			return err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	c := newClient(srv.base, srv.cmd.Process.Pid)
	recs, cals, err := c.closedLoop(bodies)
	if err != nil {
		return err
	}
	rss, err := peakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}

	var ops, wall, submit, wait, run []float64
	lines, cpu := 0, 0.0
	for i, rec := range recs {
		if rec.dataset == "" {
			r.count(1, 1)
			continue
		}
		r.count(1, 0)
		lines += in.groups[i].lines
		cpu += rec.cpu.Seconds()
		ops = append(ops, rec.cpu.Seconds()*1e3)
		wall = append(wall, rec.wall.Seconds()*1e3)
		submit = append(submit, rec.submit.Seconds()*1e3)
		wait = append(wait, rec.queueWait.Seconds()*1e3)
		run = append(run, rec.run.Seconds()*1e3)
	}
	for i := 0; i < len(recs); i += sampleEvery {
		if recs[i].dataset == "" {
			continue
		}
		leaked, err := c.leaks(recs[i].dataset, in.owners[in.groups[i].owner].identity)
		if err != nil || leaked {
			r.count(1, 1)
		} else {
			r.count(1, 0)
		}
	}
	c.http.CloseIdleConnections()
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}

	// Every CPU time is scaled by the median calibration of the run: a
	// calibration per segment would add the kernel's own noise to each
	// segment's jobs.
	cal := median(millis(cals))
	scale := portalScale(time.Duration(cal * float64(time.Millisecond)))
	m := r.Metrics
	m.set("setup_s", "s", median(setups)*scale, len(setups))
	m.set("lines_per_s", "lines/s", ratio(float64(lines), cpu*scale), len(ops))
	m.set("op_ms_p50", "ms", median(ops)*scale, len(ops))
	m.set("op_ms_p75", "ms", quantile(ops, 0.75)*scale, len(ops))
	m.set("peak_rss_mb", "MB", rss, 1)
	m.set("raw.setup_s", "s", median(setups), len(setups))
	m.set("raw.lines_per_s", "lines/s", ratio(float64(lines), cpu), len(ops))
	m.set("raw.op_ms_p50", "ms", median(ops), len(ops))
	m.set("raw.op_ms_p75", "ms", quantile(ops, 0.75), len(ops))
	m.set("host.calibration_ms", "ms", cal, len(cals))
	m.set("portal.start_wall_s", "s", median(starts), len(starts))
	m.set("portal.wall_ms_p50", "ms", median(wall), len(wall))
	m.set("portal.wall_ms_p75", "ms", quantile(wall, 0.75), len(wall))
	m.set("portal.wall_ms_p90", "ms", quantile(wall, 0.9), len(wall))
	m.set("portal.submit_ms_p50", "ms", median(submit), len(submit))
	m.set("portal.queue_wait_ms_p50", "ms", median(wait), len(wait))
	m.set("portal.run_ms_p50", "ms", median(run), len(run))
	return nil
}
