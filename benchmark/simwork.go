package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rhea/internal/krylov"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// simPlan is one of the three simulation workloads: a configuration and a
// fixed closed-loop schedule of cycles x {solve?, advect(steps), adapt?,
// checkpoint?, diag}. A run executes the schedule several times, each time
// from a freshly constructed Sim on the same inputs, and reports the
// fastest execution: on the reference host interference only ever adds
// time, in bursts of about a second that hit a third of all 5-second
// windows, so the fastest of three is far steadier than one long run of
// the same total length. The executions must agree in every exact counter.
type simPlan struct {
	name   string
	config func(seed int64, quick bool) rhea.Config
	reps   int // executions per run at refSeconds; -seconds scales this, never the schedule
	cycles int
	steps  int // AdvectSteps argument
	solve  bool
	adapt  bool
	ckpt   bool
	// afterMesh, when set, runs after New and after every Adapt (box-amr
	// rewrites its prescribed velocity onto the new mesh).
	afterMesh func(seed int64) func(*rhea.Sim)
}

var simPlans = []simPlan{
	{name: "shell-solve", config: shellSolveConfig, reps: 3, cycles: 1, steps: 4, solve: true},
	{name: "shell-cycle", config: shellCycleConfig, reps: 3, cycles: 2, steps: 8, solve: true, adapt: true, ckpt: true},
	{name: "box-amr", config: boxAMRConfig, reps: 3, cycles: 8, steps: 2, adapt: true,
		afterMesh: func(seed int64) func(*rhea.Sim) {
			f := newBoxFront(seed)
			return func(s *rhea.Sim) { writeRotation(s, f) }
		}},
}

func (p simPlan) describe(reps, cycles int) string {
	s := fmt.Sprintf("best of %d x [New, %d x {", reps, cycles)
	if p.solve {
		s += "SolveStokes, "
	}
	s += fmt.Sprintf("AdvectSteps(%d)", p.steps)
	if p.adapt {
		s += ", Adapt"
	}
	if p.ckpt {
		s += ", Checkpoint"
	}
	return s + ", diag}], then Restore + bitwise compare"
}

// Phases of a cycle, in schedule order; also the span names.
const (
	phSolve  = "solve"
	phAdvect = "advect"
	phAdapt  = "adapt"
	phCkpt   = "checkpoint"
	phDiag   = "diag"
)

var cyclePhases = []string{phSolve, phAdvect, phAdapt, phCkpt, phDiag}

// rankRec is what one rank goroutine records about one execution. Each
// rank writes only its own record; the main goroutine reads them after
// sim.Run returns, so no harness collective pollutes the counters.
type rankRec struct {
	r  *sim.Rank
	s  *rhea.Sim
	tr *tracer // nil when tracing is off

	secs  map[string]float64   // wall per phase, this rank's clock
	comm  map[string]sim.Stats // traced: summed Stats deltas per phase
	sched sim.Stats            // cumulative Stats at the end of the schedule
	cost  time.Duration        // traced: time inside the harness's own tracing code

	construct float64 // spawn -> New returned everywhere
	firstDiag float64 // spawn -> first cycle's diagnostics
	wall      float64 // the schedule
	cycleSum  float64 // sum of the cycle spans

	iters, itersMax, nonconv int
	relres                   float64
	firstIters               int     // first (cold) solve: iterations and
	firstMinres              float64 // seconds inside MINRES, for rhea.speedup_2r
	adapts                   int
	refined, coarsened       int64
	balanceAdded             int64
	nu, vrms                 float64
	elems                    int // local elements at the end
	ckptMS                   []float64
	lastSnap                 string
	failures                 []string

	times0, times1 rhea.Timings     // Sim.Times at schedule start and end
	mem0, mem1     runtime.MemStats // traced, rank 0

	// Filled on the last execution only, while its Sim is still live.
	liveHeap float64            // MB, rank 0
	final    [5][]float64       // T, U0..2, P copies for the bitwise restore check
	solver   *stokes.Solver     // traced: the harness's own solver on the final mesh
	replay   map[string]float64 // traced, rank 0
}

func (rc *rankRec) fail(format string, a ...any) {
	rc.failures = append(rc.failures, fmt.Sprintf(format, a...))
}

// exact lists this execution's counters that must repeat bit for bit.
func (rc *rankRec) exact() [12]int64 {
	return [12]int64{
		int64(rc.sched.UserMsgs), rc.sched.UserBytes, int64(rc.sched.CollectiveCalls), int64(rc.sched.CollRounds),
		int64(rc.iters), int64(rc.itersMax), int64(rc.nonconv), int64(rc.adapts),
		rc.refined, rc.coarsened, rc.balanceAdded, int64(rc.elems),
	}
}

// addDelta returns a + (b - c), field by field.
func addDelta(a, b, c sim.Stats) sim.Stats {
	a.MsgsSent += b.MsgsSent - c.MsgsSent
	a.BytesSent += b.BytesSent - c.BytesSent
	a.UserMsgs += b.UserMsgs - c.UserMsgs
	a.UserBytes += b.UserBytes - c.UserBytes
	a.CollMsgs += b.CollMsgs - c.CollMsgs
	a.CollTransportBytes += b.CollTransportBytes - c.CollTransportBytes
	a.CollectiveCalls += b.CollectiveCalls - c.CollectiveCalls
	a.CollectiveBytes += b.CollectiveBytes - c.CollectiveBytes
	a.CollRounds += b.CollRounds - c.CollRounds
	return a
}

// call runs one phase: a harness Barrier (outside the timed and counted
// window), then fn under this rank's clock. The traced run adds a span and
// the Rank.Stats delta the call caused. It returns fn's seconds.
func (rc *rankRec) call(name string, fn func()) float64 {
	rc.r.Barrier()
	id := rc.r.ID()
	var st0 sim.Stats
	if rc.tr != nil {
		c0 := time.Now()
		st0 = rc.r.Stats()
		rc.tr.begin(id, name)
		rc.cost += time.Since(c0)
	}
	t0 := time.Now()
	fn()
	dt := time.Since(t0).Seconds()
	rc.secs[name] += dt
	if rc.tr != nil {
		c0 := time.Now()
		rc.tr.end(id)
		rc.comm[name] = addDelta(rc.comm[name], rc.r.Stats(), st0)
		rc.cost += time.Since(c0)
	}
	return dt
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func fields(s *rhea.Sim) [5][]float64 {
	return [5][]float64{s.T.Data, s.U[0].Data, s.U[1].Data, s.U[2].Data, s.P.Data}
}

// runSchedule executes the plan's cycles on this rank (collective).
func (rc *rankRec) runSchedule(p simPlan, cycles int, after func(*rhea.Sim), snapRoot string, spawn time.Time) {
	s, id := rc.s, rc.r.ID()
	rc.times0 = s.Times
	if rc.tr != nil && id == 0 {
		runtime.ReadMemStats(&rc.mem0)
	}
	rc.r.Barrier()
	rc.tr.begin(id, "workload")
	t0 := time.Now()
	for c := 0; c < cycles; c++ {
		rc.tr.begin(id, "cycle")
		tc := time.Now()
		if p.solve {
			var res krylov.Result
			m0 := s.Times.MINRES
			rc.call(phSolve, func() { res = s.SolveStokes() })
			if c == 0 {
				rc.firstIters, rc.firstMinres = res.Iterations, s.Times.MINRES-m0
			}
			rc.iters += res.Iterations
			if res.Iterations > rc.itersMax {
				rc.itersMax = res.Iterations
			}
			if len(res.History) > 0 && res.History[0] > 0 {
				rc.relres = res.Residual / res.History[0]
			}
			if !res.Converged || !finite(res.Residual) {
				rc.nonconv++
				rc.fail("solve %d: converged=%v residual=%g after %d iterations", c+1, res.Converged, res.Residual, res.Iterations)
			}
		}
		rc.call(phAdvect, func() { s.AdvectSteps(p.steps) })
		if p.adapt {
			var ad rhea.AdaptStats
			rc.call(phAdapt, func() { ad = s.Adapt() })
			rc.adapts++
			rc.refined += ad.Refined
			rc.coarsened += ad.Coarsened
			rc.balanceAdded += ad.BalanceAdded
			if ad.ElementsNow <= 0 {
				rc.fail("adapt %d: %d elements", c+1, ad.ElementsNow)
			}
			if after != nil {
				after(s)
			}
		}
		if p.ckpt {
			rc.checkpoint(phCkpt, filepath.Join(snapRoot, fmt.Sprintf("cycle-%05d", c+1)))
		}
		rc.call(phDiag, func() { rc.nu, rc.vrms = s.Nusselt(), s.RMSVelocity() })
		ok := finite(rc.nu, rc.vrms)
		for _, v := range fields(s) {
			ok = ok && finite(v...)
		}
		if !ok {
			rc.fail("cycle %d: non-finite state (Nu=%g Vrms=%g)", c+1, rc.nu, rc.vrms)
		}
		rc.tr.end(id)
		rc.cycleSum += time.Since(tc).Seconds()
		if c == 0 {
			rc.firstDiag = time.Since(spawn).Seconds()
		}
	}
	rc.r.Barrier()
	rc.wall = time.Since(t0).Seconds()
	rc.tr.end(id)
	rc.sched = rc.r.Stats()
	rc.times1 = s.Times
	rc.elems = len(s.Mesh.Leaves)
	if rc.tr != nil && id == 0 {
		runtime.ReadMemStats(&rc.mem1)
	}
}

// checkpoint writes one snapshot under the given phase name: phCkpt inside
// the schedule, another name for the one written after it.
func (rc *rankRec) checkpoint(phase, dir string) {
	var err error
	dt := rc.call(phase, func() { err = rc.s.Checkpoint(dir) })
	rc.ckptMS = append(rc.ckptMS, 1e3*dt)
	if err != nil {
		rc.fail("checkpoint %s: %v", filepath.Base(dir), err)
		return
	}
	rc.lastSnap = dir
}

// afterSchedule runs on the last execution, after its schedule and outside
// every end-to-end time: the resident heap, the snapshot and field copies
// the restore check needs, and the traced run's layer replay.
func (rc *rankRec) afterSchedule(p simPlan, o options, snapRoot string) {
	r, s := rc.r, rc.s
	// Resident state per problem: heap after a forced collection with the
	// Sim of every rank still live.
	r.Barrier()
	if r.ID() == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rc.liveHeap = float64(ms.HeapAlloc) / 1e6
	}
	r.Barrier()
	if !p.ckpt {
		rc.checkpoint("final-checkpoint", filepath.Join(snapRoot, "final"))
	}
	for i, v := range fields(s) {
		rc.final[i] = append([]float64(nil), v...)
	}
	if o.trace {
		rc.replayLayers(p, o)
	}
	runtime.KeepAlive(s)
}

// runSim runs one simulation workload and returns its outcome.
func runSim(p simPlan, o options) *outcome {
	out := newOutcome()
	cfg := p.config(o.seed, o.quick)
	reps, cycles := scaled(p.reps, o.seconds), p.cycles
	if o.quick {
		reps, cycles = 2, 1
	}
	out.schedule = p.describe(reps, cycles)
	var after func(*rhea.Sim)
	if p.afterMesh != nil {
		after = p.afterMesh(o.seed)
	}
	snapRoot := filepath.Join(o.tmp, p.name)

	// setup_s: world spawn + rhea.New including initial adaptation,
	// constructed and discarded several times. This also grows the heap
	// and faults its pages in before anything else is timed.
	var setups []float64
	for i := 0; i < o.setupReps(); i++ {
		t0 := time.Now()
		sim.Run(ranks, func(r *sim.Rank) { rhea.New(r, cfg) })
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups))

	var tr *tracer
	if o.trace {
		tr = newTracer(o.runID(p.name), ranks)
	}
	runs := make([][]*rankRec, reps) // per execution, per rank
	for rep := range runs {
		recs := make([]*rankRec, ranks)
		runs[rep] = recs
		runtime.GC()
		spawn := time.Now()
		sim.Run(ranks, func(r *sim.Rank) {
			rc := &rankRec{r: r, tr: tr, secs: map[string]float64{}, comm: map[string]sim.Stats{}}
			recs[r.ID()] = rc
			rc.s = rhea.New(r, cfg)
			if after != nil {
				after(rc.s)
			}
			r.Barrier()
			rc.construct = time.Since(spawn).Seconds()
			snaps := filepath.Join(snapRoot, fmt.Sprintf("execution-%d", rep+1))
			rc.runSchedule(p, cycles, after, snaps, spawn)
			if rep == reps-1 {
				rc.afterSchedule(p, o, snaps)
			}
			// The record outlives this world; the Sim must not, or the next
			// execution's resident heap would count it.
			rc.s, rc.solver = nil, nil
		})
	}
	last := runs[reps-1]

	// The fastest execution carries the times; every execution is checked.
	best := runs[0]
	firstDiag, job := math.Inf(1), math.Inf(1)
	for rep, recs := range runs {
		r0 := recs[0]
		if r0.wall < best[0].wall {
			best = recs
		}
		firstDiag = math.Min(firstDiag, r0.firstDiag)
		job = math.Min(job, r0.construct+r0.wall)
		// Each solve, adapt and checkpoint is one op. Collective results
		// agree across ranks; rank-local checks may fail on one rank only.
		if p.solve {
			out.ops += cycles
		}
		out.ops += r0.adapts + len(r0.ckptMS)
		for _, rc := range recs {
			for _, f := range rc.failures {
				if f = fmt.Sprintf("execution %d: %s", rep+1, f); !slices.Contains(out.failures, f) {
					out.failures = append(out.failures, f)
				}
			}
			if rep > 0 {
				same := rc.exact() == runs[0][rc.r.ID()].exact()
				out.op("repeat", same, fmt.Sprintf("execution %d rank %d counters %v differ from the first execution's %v: harness nondeterministic",
					rep+1, rc.r.ID(), rc.exact(), runs[0][rc.r.ID()].exact()))
			}
		}
	}
	r0 := best[0]
	walls := "schedule seconds per execution:"
	for _, recs := range runs {
		walls += fmt.Sprintf(" %.3f", recs[0].wall)
	}
	out.notes = append(out.notes, walls)

	// Restore the last snapshot in fresh worlds: resume_s, ckpt.read_ms and
	// the bitwise T/U/P comparison (one op).
	resume, reads := math.Inf(1), []float64(nil)
	same := make([]bool, ranks) // per rank: restored T/U/P equal the run's bit for bit
	var restoreErr error
	for i := 0; i < o.setupReps(); i++ {
		t0 := time.Now()
		sim.Run(ranks, func(r *sim.Rank) {
			t1 := time.Now()
			s2, err := rhea.Restore(r, cfg, last[0].lastSnap)
			read := time.Since(t1).Seconds()
			r.Barrier()
			if r.ID() == 0 {
				resume = math.Min(resume, time.Since(t0).Seconds())
				reads = append(reads, 1e3*read)
				restoreErr = err
			}
			if err != nil || i > 0 {
				return
			}
			want, ok := last[r.ID()].final, true
			for k, v := range fields(s2) {
				ok = ok && sameBits(v, want[k])
			}
			same[r.ID()] = ok
		})
	}
	bitexact := !slices.Contains(same, false)
	out.op("restore", restoreErr == nil && bitexact, fmt.Sprintf("err=%v bitexact=%v", restoreErr, bitexact))
	snapKB := dirKB(last[0].lastSnap)
	if err := os.RemoveAll(snapRoot); err != nil {
		out.failures = append(out.failures, "cleanup: "+err.Error())
	}

	// End-to-end.
	out.set("wall_s", r0.wall)
	out.set("first_diag_s", firstDiag)
	out.set("job_s", job)
	out.set("resume_s", resume)
	out.set("live_heap_mb", last[0].liveHeap)
	if p.solve {
		out.set("solve_s", r0.secs[phSolve])
	}
	out.set("advect_s", r0.secs[phAdvect])
	if p.adapt {
		out.set("adapt_s", r0.secs[phAdapt])
	}

	// Exact counters that cost nothing: recorded traced or not.
	var elems, maxLocal int
	var sched sim.Stats
	for _, rc := range best {
		elems += rc.elems
		if rc.elems > maxLocal {
			maxLocal = rc.elems
		}
		sched = maxStats(sched, rc.sched)
	}
	out.set("sim.user_msgs", float64(sched.UserMsgs))
	out.set("sim.user_mb", float64(sched.UserBytes)/1e6)
	out.set("sim.coll_calls", float64(sched.CollectiveCalls))
	out.set("sim.coll_rounds", float64(sched.CollRounds))
	out.set("krylov.iters", float64(r0.iters))
	out.set("krylov.iters_max", float64(r0.itersMax))
	out.set("krylov.nonconverged", float64(r0.nonconv))
	out.set("stokes.setups", float64(r0.times1.StokesSetups-r0.times0.StokesSetups))
	out.set("amr.adapts", float64(r0.adapts))
	out.set("amr.refined", float64(r0.refined))
	out.set("amr.coarsened", float64(r0.coarsened))
	out.set("amr.balance_added", float64(r0.balanceAdded))
	out.set("amr.elems_final", float64(elems))
	out.set("amr.elem_imbalance", float64(maxLocal)*ranks/float64(elems))

	out.checkRefs(p.name, o, r0.nu, r0.vrms)
	out.set("rhea.nu", r0.nu)
	out.set("rhea.vrms", r0.vrms)

	if o.trace {
		simLayerMetrics(out, p, best, cycles, elems)
		for k, v := range last[0].replay {
			out.set(k, v)
		}
		// The replayed unit costs, scaled to the schedule's iterations,
		// against the time the schedule spent inside MINRES.
		if m := out.metrics; m["stokes.minres_s"] > 0 {
			perIter := m["matfree.apply_ms"]/1e3 + m["stokes.precond_apply_ms"]/1e3 + m["krylov.self_us_per_iter"]/1e6
			out.set("krylov.replay_cover", float64(r0.iters)*perIter/m["stokes.minres_s"])
		}
		runtimeProbes(out, o)
		if p.name == "shell-solve" {
			out.set("rhea.speedup_2r", speedup2r(cfg, o, r0))
		}
		out.set("ckpt.write_ms", median(last[0].ckptMS))
		out.set("ckpt.read_ms", median(reads))
		out.set("ckpt.kb", snapKB)
		out.set("ckpt.restore_bitexact", b2f(bitexact))
		out.writeTrace(tr, o.out, p.name)
	}
	return out
}

// simLayerMetrics turns one traced execution's records into the per-layer
// ledger.
func simLayerMetrics(out *outcome, p simPlan, recs []*rankRec, cycles, elems int) {
	r0 := recs[0]
	dt := func(f func(rhea.Timings) float64) float64 { return f(r0.times1) - f(r0.times0) }

	// Communication inside SolveStokes per MINRES iteration, max over ranks.
	var solveComm sim.Stats
	for _, rc := range recs {
		solveComm = maxStats(solveComm, rc.comm[phSolve])
	}
	if r0.iters > 0 {
		out.set("sim.colls_per_iter", float64(solveComm.CollectiveCalls)/float64(r0.iters))
		out.set("sim.msgs_per_iter", float64(solveComm.UserMsgs)/float64(r0.iters))
		out.set("krylov.wall_ms_per_iter", 1e3*r0.secs[phSolve]/float64(r0.iters))
	}

	out.set("stokes.setup_s", dt(func(t rhea.Timings) float64 { return t.StokesSetup }))
	out.set("stokes.update_s", dt(func(t rhea.Timings) float64 { return t.StokesUpdate }))
	out.set("stokes.minres_s", dt(func(t rhea.Timings) float64 { return t.MINRES }))
	out.set("stokes.relres_final", r0.relres)

	adv := dt(func(t rhea.Timings) float64 { return t.TimeIntegrate })
	out.set("advect.total_s", adv)
	// The element count changes per cycle on adaptive workloads; the final
	// count stands in for the mean.
	out.set("advect.step_us_per_elem", 1e6*adv/float64(cycles*p.steps*elems))

	extract := dt(func(t rhea.Timings) float64 { return t.ExtractMesh })
	out.set("errind.mark_s", dt(func(t rhea.Timings) float64 { return t.MarkElements }))
	out.set("amr.coarsen_refine_s", dt(func(t rhea.Timings) float64 { return t.CoarsenRefine }))
	out.set("amr.balance_s", dt(func(t rhea.Timings) float64 { return t.BalanceTree }))
	out.set("amr.partition_s", dt(func(t rhea.Timings) float64 { return t.PartitionTree }))
	out.set("mesh.extract_s", extract)
	out.set("field.project_s", dt(func(t rhea.Timings) float64 { return t.InterpolateFld }))
	out.set("field.transfer_s", dt(func(t rhea.Timings) float64 { return t.TransferFld }))
	if r0.adapts > 0 {
		out.set("mesh.extract_us_per_elem", 1e6*extract/float64(r0.adapts*elems))
	}

	// The cycle ledger: the children of the cycle spans, and what they
	// leave (a span's self time is its duration minus its children).
	var children float64
	for _, ph := range cyclePhases {
		children += r0.secs[ph]
	}
	out.set("rhea.solve_s", r0.secs[phSolve])
	out.set("rhea.advect_s", r0.secs[phAdvect])
	out.set("rhea.adapt_s", r0.secs[phAdapt])
	out.set("rhea.ckpt_s", r0.secs[phCkpt])
	out.set("rhea.diag_s", r0.secs[phDiag])
	out.set("rhea.other_s", r0.cycleSum-children)
	out.set("rhea.breakdown_cover", children/r0.wall)
	out.set("rhea.trace_overhead_frac", r0.cost.Seconds()/r0.wall)

	out.set("rhea.alloc_mb", float64(r0.mem1.TotalAlloc-r0.mem0.TotalAlloc)/1e6)
	out.set("rhea.mallocs", float64(r0.mem1.Mallocs-r0.mem0.Mallocs))
	out.set("rhea.gc_count", float64(r0.mem1.NumGC-r0.mem0.NumGC))
	out.set("rhea.gc_pause_ms", float64(r0.mem1.PauseTotalNs-r0.mem0.PauseTotalNs)/1e6)
}

// maxStats is the field-wise maximum (the busiest rank per counter).
func maxStats(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		MsgsSent: max(a.MsgsSent, b.MsgsSent), BytesSent: max(a.BytesSent, b.BytesSent),
		UserMsgs: max(a.UserMsgs, b.UserMsgs), UserBytes: max(a.UserBytes, b.UserBytes),
		CollMsgs: max(a.CollMsgs, b.CollMsgs), CollTransportBytes: max(a.CollTransportBytes, b.CollTransportBytes),
		CollectiveCalls: max(a.CollectiveCalls, b.CollectiveCalls), CollectiveBytes: max(a.CollectiveBytes, b.CollectiveBytes),
		CollRounds: max(a.CollRounds, b.CollRounds),
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// speedup2r is the plain single-threaded baseline: the same problem's
// cold solve at 1 rank, GOMAXPROCS(1) and one matrix-free worker, capped
// at a few dozen iterations, against the measured 2-rank cold solve —
// compared as seconds inside MINRES per iteration. More ranks than cores
// would report counts only, so there is no wider scaling series.
func speedup2r(cfg rhea.Config, o options, r0 *rankRec) float64 {
	cfg.MatFree.Workers = 1
	cfg.MinresMax = o.minresCap()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var perIter float64
	sim.Run(1, func(r *sim.Rank) {
		s := rhea.New(r, cfg)
		res := s.SolveStokes()
		if res.Iterations > 0 {
			perIter = s.Times.MINRES / float64(res.Iterations)
		}
	})
	if r0.firstIters == 0 || r0.firstMinres == 0 {
		return 0
	}
	return perIter / (r0.firstMinres / float64(r0.firstIters))
}
