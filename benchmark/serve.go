package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rhea/internal/rhea"
	"rhea/internal/scenario"
	"rhea/internal/sim"
)

// serve-jobs: the scenario service over HTTP. One worker, two closed-loop
// clients (<= nproc connections); each client submits a small shell job,
// follows its diagnostics to the terminal state, checks it, resumes it
// for more cycles and follows again. Jobs are ~400-element meshes where
// one MINRES iteration is a few milliseconds, so fixed costs — world
// spawn, rhea.New, stokes.Setup, collective latency, checkpoint commits,
// journal appends, restores — dominate.
//
// Like the simulation workloads it runs its closed loop several times and
// reports the fastest as wall_s; the latencies are medians over the jobs of
// all rounds.
const (
	serveClients = 2
	serveRounds  = 3 // executions of the closed loop at refSeconds
	serveLoops   = 2 // jobs per client and round
)

// service is a running manager behind an HTTP test server.
type service struct {
	root string
	mgr  *scenario.Manager
	srv  *httptest.Server
}

func startService(root string) (*service, error) {
	mgr, err := scenario.NewManager(root, 1)
	if err != nil {
		return nil, err
	}
	return &service{root: root, mgr: mgr, srv: httptest.NewServer(scenario.NewHandler(mgr))}, nil
}

func (s *service) stop() {
	s.srv.Close()
	s.mgr.Close()
}

// jobTimes is what a client saw of one fresh job and its resume.
type jobTimes struct {
	submit, firstDiag, job, resume float64
	diags                          []scenario.CycleDiag // fresh job and resume, in order
	freshCycles                    int
	view                           scenario.JobView // the latest the client fetched
	failures                       []string
}

func (jt *jobTimes) fail(format string, a ...any) {
	jt.failures = append(jt.failures, fmt.Sprintf(format, a...))
}

// follow streams a job's diagnostics from cycle index from until the
// service closes the stream at the terminal state. It returns the records
// and the time the first one arrived.
func follow(c *http.Client, base string, id, from int) ([]scenario.CycleDiag, time.Time, error) {
	resp, err := c.Get(fmt.Sprintf("%s/scenarios/%d/diag?follow=1&from=%d", base, id, from))
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("diag: status %s", resp.Status)
	}
	var ds []scenario.CycleDiag
	var first time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
		}
		var d scenario.CycleDiag
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return ds, first, fmt.Errorf("diag line %q: %w", sc.Text(), err)
		}
		ds = append(ds, d)
	}
	return ds, first, sc.Err()
}

func postJSON(c *http.Client, url, body string, into any) error {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func getJob(c *http.Client, base string, id int) (scenario.JobView, error) {
	var v scenario.JobView
	resp, err := c.Get(fmt.Sprintf("%s/scenarios/%d", base, id))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET job %d: status %s", id, resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// checkDone demands the terminal state the benchmark's workloads must
// always reach: done, no retries, all cycles run, finite diagnostics.
func (jt *jobTimes) checkDone(what string, ds []scenario.CycleDiag) {
	v := jt.view
	if v.State != scenario.StateDone || v.Retries != 0 || v.CyclesDone != v.TargetCycles {
		jt.fail("%s of job %d: state=%s retries=%d cycles=%d/%d error=%q", what, v.ID, v.State, v.Retries, v.CyclesDone, v.TargetCycles, v.Error)
	}
	for _, d := range ds {
		if !finite(d.Nu, d.Vrms) {
			jt.fail("%s of job %d: cycle %d diagnostics not finite", what, v.ID, d.Cycle)
		}
	}
}

// submit posts a fresh job and follows it to its terminal state.
func submit(c *http.Client, base, spec string) *jobTimes {
	jt := &jobTimes{}
	t0 := time.Now()
	if err := postJSON(c, base+"/scenarios", spec, &jt.view); err != nil {
		jt.fail("submit: %v", err)
		return jt
	}
	id := jt.view.ID
	jt.submit = time.Since(t0).Seconds()
	ds, first, err := follow(c, base, id, 0)
	jt.job = time.Since(t0).Seconds()
	if err != nil || len(ds) == 0 {
		jt.fail("follow job %d: %d records, %v", id, len(ds), err)
		return jt
	}
	jt.firstDiag = first.Sub(t0).Seconds()
	jt.diags, jt.freshCycles = ds, len(ds)
	if jt.view, err = getJob(c, base, id); err != nil {
		jt.fail("%v", err)
		return jt
	}
	jt.checkDone("run", ds)
	return jt
}

// resume asks for more cycles of a finished job and follows them.
func (jt *jobTimes) resumeFor(c *http.Client, base string, cycles int) {
	id := jt.view.ID
	t0 := time.Now()
	if err := postJSON(c, fmt.Sprintf("%s/scenarios/%d/resume", base, id), fmt.Sprintf(`{"cycles":%d}`, cycles), &jt.view); err != nil {
		jt.fail("resume job %d: %v", id, err)
		return
	}
	ds, _, err := follow(c, base, id, jt.freshCycles)
	jt.resume = time.Since(t0).Seconds()
	if err != nil || len(ds) != cycles {
		jt.fail("follow resume of job %d: %d records, %v", id, len(ds), err)
		return
	}
	jt.diags = append(jt.diags, ds...)
	if jt.view, err = getJob(c, base, id); err != nil {
		jt.fail("%v", err)
		return
	}
	jt.checkDone("resume", ds)
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	rounds, loops, resumeCycles := scaled(serveRounds, o.seconds), serveLoops, 2
	if o.quick {
		rounds, loops, resumeCycles = 1, 1, 1
	}
	out.schedule = fmt.Sprintf("best of %d x [%d clients x %d x {POST job, follow, GET, POST resume(%d), follow, GET}], 1 worker", rounds, serveClients, loops, resumeCycles)

	// setup_s: manager + server start + one seed job run to completion.
	// The last service stays up for the measurement.
	var svc *service
	var setups []float64
	warm := rand.New(rand.NewSource(o.seed))
	for i := 0; i < o.setupReps(); i++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		var err error
		if svc, err = startService(filepath.Join(o.tmp, fmt.Sprintf("service-%d", i))); err != nil {
			return nil, err
		}
		started := time.Since(t0).Seconds()
		jt := submit(svc.srv.Client(), svc.srv.URL, jobSpec(warm, o.quick))
		setups = append(setups, started+jt.job)
		if len(jt.failures) > 0 {
			svc.stop()
			return nil, fmt.Errorf("seed job failed: %s", strings.Join(jt.failures, "; "))
		}
	}
	defer svc.stop()
	out.set("setup_s", median(setups))
	runtime.GC()

	// The measured closed loops; the traced run records one span per
	// request pair, one tid per client.
	var tr *tracer
	if o.trace {
		tr = newTracer(o.runID("serve-jobs"), serveClients)
	}
	jobs := make([][]*jobTimes, serveClients)
	rngs := make([]*rand.Rand, serveClients)
	for ci := range rngs {
		rngs[ci] = rand.New(rand.NewSource(o.seed*1000 + int64(ci)))
	}
	wall := math.Inf(1)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for ci := 0; ci < serveClients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := svc.srv.Client()
				for i := 0; i < loops; i++ {
					tr.begin(ci, "job")
					tr.begin(ci, "run")
					jt := submit(c, svc.srv.URL, jobSpec(rngs[ci], o.quick))
					tr.end(ci)
					if len(jt.failures) == 0 {
						tr.begin(ci, "resume")
						jt.resumeFor(c, svc.srv.URL, resumeCycles)
						tr.end(ci)
					}
					tr.end(ci)
					jobs[ci] = append(jobs[ci], jt)
				}
			}(ci)
		}
		wg.Wait()
		wall = math.Min(wall, time.Since(t0).Seconds())
	}
	out.set("wall_s", wall)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("live_heap_mb", float64(ms.HeapAlloc)/1e6)

	// With one worker and two clients every request queues behind exactly
	// one request of the other client, and which one is fixed by the
	// client's position in the J1 J2 R1 R2 pattern: the two clients see
	// two different, steady latencies. The reported time is the median per
	// client, averaged over the clients; a pooled median would sit on the
	// boundary between the two groups.
	perClient := func(f func(*jobTimes) float64) float64 {
		var sum float64
		for _, list := range jobs {
			var v []float64
			for _, jt := range list {
				v = append(v, f(jt))
			}
			sum += median(v)
		}
		return sum / serveClients
	}
	out.set("job_s", perClient(func(jt *jobTimes) float64 { return jt.job }))
	out.set("first_diag_s", perClient(func(jt *jobTimes) float64 { return jt.firstDiag }))
	out.set("resume_s", perClient(func(jt *jobTimes) float64 { return jt.resume }))

	var iters, itersMax, retries, failed int
	var cycleWall float64
	var last *jobTimes
	for _, list := range jobs {
		for _, jt := range list {
			out.ops += 2 // the job and its resume
			out.failures = append(out.failures, jt.failures...)
			if len(jt.failures) > 0 {
				failed++
			}
			retries += jt.view.Retries
			for _, d := range jt.diags {
				iters += d.MinresIters
				cycleWall += d.WallSecs
				if d.MinresIters > itersMax {
					itersMax = d.MinresIters
				}
			}
		}
	}
	if l := jobs[0]; len(l) > 0 && len(l[len(l)-1].diags) > 0 {
		last = l[len(l)-1]
		d := last.diags[len(last.diags)-1]
		out.checkRefs("serve-jobs", o, d.Nu, d.Vrms)
		out.set("rhea.nu", d.Nu)
		out.set("rhea.vrms", d.Vrms)
		out.set("amr.elems_final", float64(d.Elements))
	}
	out.set("krylov.iters", float64(iters))
	out.set("krylov.iters_max", float64(itersMax))
	out.set("scenario.jobs", float64(serveClients*rounds*loops))
	out.set("scenario.failed_jobs", float64(failed))
	out.set("scenario.retries", float64(retries))

	if o.trace && last != nil {
		serveLayerMetrics(out, o, svc, jobs, last, iters, cycleWall)
		out.writeTrace(tr, o.out, "serve-jobs")
	}
	return out, nil
}

// serveLayerMetrics derives the scenario layer's ledger from what the
// clients saw, plus one run of the same spec directly through rhea.
func serveLayerMetrics(out *outcome, o options, svc *service, jobs [][]*jobTimes, last *jobTimes, iters int, cycleWall float64) {
	var submit, queueWait, overhead, snapKB []float64
	for _, list := range jobs {
		for _, jt := range list {
			if len(jt.failures) > 0 {
				continue
			}
			var inCycles float64
			for _, d := range jt.diags[:jt.freshCycles] {
				inCycles += d.WallSecs
			}
			submit = append(submit, 1e3*jt.submit)
			queueWait = append(queueWait, jt.firstDiag-jt.diags[0].WallSecs)
			overhead = append(overhead, (jt.job-inCycles)/jt.job)
			snapKB = append(snapKB, dirKB(jt.view.Snapshot))
		}
	}
	out.set("scenario.resume_s", out.metrics["resume_s"])
	out.set("scenario.submit_ms", median(submit))
	out.set("scenario.queue_wait_s", median(queueWait))
	out.set("scenario.overhead_frac", median(overhead))
	out.set("scenario.snap_kb", median(snapKB))
	out.set("ckpt.kb", median(snapKB))
	if fi, err := os.Stat(filepath.Join(svc.root, "jobs.jsonl")); err == nil {
		out.set("scenario.journal_kb", float64(fi.Size())/1e3)
	}
	if iters > 0 {
		out.set("krylov.wall_ms_per_iter", 1e3*cycleWall/float64(iters))
	}

	// The same spec without the service around it: spawn, New, and the
	// fresh job's cycles with their diagnostics and checkpoints.
	spec := last.view.Spec
	cfg := spec.Config()
	dir := filepath.Join(o.tmp, "direct")
	var direct []float64
	for i := 0; i < o.setupReps(); i++ {
		t0 := time.Now()
		sim.Run(spec.Ranks, func(r *sim.Rank) {
			s := rhea.New(r, cfg)
			for c := 0; c < last.freshCycles; c++ {
				s.RunCycle()
				s.Nusselt()
				s.RMSVelocity()
				if err := s.Checkpoint(filepath.Join(dir, fmt.Sprintf("cycle-%05d", c+1))); err != nil && r.ID() == 0 {
					out.failures = append(out.failures, "direct run checkpoint: "+err.Error())
				}
			}
		})
		direct = append(direct, time.Since(t0).Seconds())
	}
	out.set("scenario.direct_ratio", out.metrics["job_s"]/median(direct))
	runtimeProbes(out, o)
}

// runtimeProbes measures what does not depend on the workload: the two
// fixed costs of the simulated runtime at this world size (spawning a
// world, one scalar Allreduce) and the host's sustainable bandwidth, to
// set the matrix-free apply against.
func runtimeProbes(out *outcome, o options) {
	gbs, arrayMB, llcMB := triad()
	out.set("host.triad_gbs", gbs)
	out.set("host.triad_array_mb", arrayMB)
	out.set("host.llc_mb", llcMB)
	n := o.replayReps()
	out.set("sim.spawn_ms", 1e3*timeEachNoBarrier(n, func() { sim.Run(ranks, func(*sim.Rank) {}) }))
	var us float64
	sim.Run(ranks, func(r *sim.Rank) {
		v := 1e6 * timeEachNoBarrier(40*n, func() { r.Allreduce(1, sim.OpSum) })
		if r.ID() == 0 {
			us = v
		}
	})
	out.set("sim.allreduce_us", us)
}
