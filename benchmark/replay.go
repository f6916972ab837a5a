package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"rhea/internal/advect"
	"rhea/internal/fem"
	"rhea/internal/gmg"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// The replay: after the schedule ends, the traced run builds its own
// solver on the final mesh and state and times each layer's public entry
// points directly. Everything here is collective and runs on every rank;
// rank 0 keeps the numbers.

// timeEach runs fn n times, a Barrier before each, and returns the
// median seconds on this rank's clock.
func timeEach(r *sim.Rank, n int, fn func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		r.Barrier()
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// commOf returns the Stats delta one call of fn causes on this rank.
func commOf(r *sim.Rank, fn func()) sim.Stats {
	r.Barrier()
	st0 := r.Stats()
	fn()
	return addDelta(sim.Stats{}, r.Stats(), st0)
}

// mallocsPer returns the process-wide heap allocations per call of fn
// (all ranks together), read on rank 0 with every rank parked at a
// Barrier on both sides of the counted window.
func mallocsPer(r *sim.Rank, n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	r.Barrier()
	if r.ID() == 0 {
		runtime.ReadMemStats(&m0)
	}
	r.Barrier()
	for i := 0; i < n; i++ {
		fn()
	}
	r.Barrier()
	if r.ID() == 0 {
		runtime.ReadMemStats(&m1)
	}
	r.Barrier()
	// The window also holds the other rank's share of the two inner
	// Barriers and whatever pooled buffers the collector dropped, so the
	// count is reported as measured and not declared exact.
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// buoyancy evaluates the body force at element corners from the current
// temperature, as rhea does before each solve (collective).
func buoyancy(s *rhea.Sim, sm *matfree.SlotMap) [][8][3]float64 {
	buf := make([]float64, sm.NSlots())
	copy(buf, s.T.Data)
	sm.GX.Gather(s.T.Data, buf[sm.NOwned:])
	force := make([][8][3]float64, len(s.Mesh.Leaves))
	for ei := range s.Mesh.Leaves {
		for c := 0; c < 8; c++ {
			co := &sm.Corners[ei][c]
			var tv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * buf[co.Slot[k]]
			}
			if s.Cfg.Shell {
				x := s.Mesh.X[ei][c]
				f := s.Cfg.Ra * tv / math.Sqrt(x[0]*x[0]+x[1]*x[1]+x[2]*x[2])
				force[ei][c] = [3]float64{f * x[0], f * x[1], f * x[2]}
			} else {
				force[ei][c] = [3]float64{0, 0, s.Cfg.Ra * tv}
			}
		}
	}
	return force
}

// cornerVelocity samples the nodal velocity at element corners (collective).
func cornerVelocity(s *rhea.Sim, sm *matfree.SlotMap) [][8][3]float64 {
	n := sm.NOwned
	var bufs [3][]float64
	owned, ghost := make([][]float64, 3), make([][]float64, 3)
	for d := range bufs {
		bufs[d] = make([]float64, sm.NSlots())
		copy(bufs[d], s.U[d].Data)
		owned[d], ghost[d] = s.U[d].Data, bufs[d][n:]
	}
	sm.GX.GatherMulti(owned, ghost)
	out := make([][8][3]float64, len(s.Mesh.Leaves))
	for ei := range out {
		for c := 0; c < 8; c++ {
			co := &sm.Corners[ei][c]
			for d := 0; d < 3; d++ {
				for k := 0; k < int(co.N); k++ {
					out[ei][c][d] += co.W[k] * bufs[d][co.Slot[k]]
				}
			}
		}
	}
	return out
}

func stokesOptions(cfg rhea.Config) stokes.Options {
	return stokes.Options{
		AMG: cfg.AMG, MatrixFree: cfg.MatrixFree, MatFree: cfg.MatFree,
		Precond: cfg.Precond, GMG: cfg.GMG, LocalAMG: cfg.LocalAMG,
		Order: cfg.Order, Slip: cfg.SlipBC,
	}
}

// replayLayers fills rc.replay (collective; rank 0's numbers are used).
func (rc *rankRec) replayLayers(p simPlan, o options) {
	r, s, id := rc.r, rc.s, rc.r.ID()
	m := map[string]float64{}
	rc.replay = m
	n := o.replayReps()
	rc.tr.begin(id, "replay")
	defer rc.tr.end(id)
	span := func(name string, fn func()) {
		rc.tr.begin(id, name)
		fn()
		rc.tr.end(id)
	}

	var sm *matfree.SlotMap
	if p.solve {
		rc.replaySolver(m, n, o.minresCap(), span)
		sm = rc.solver.NodeSlots()
	} else {
		sm = matfree.NewSlotMap(s.Mesh, 1)
	}

	// advect: building the transport problem (done by every AdvectSteps
	// call) against taking one step with it.
	vel := cornerVelocity(s, sm)
	var prob *advect.Problem
	span("advect.new", func() {
		m["advect.new_ms"] = 1e3 * timeEach(r, 3, func() {
			prob = advect.New(s.Mesh, s.Cfg.Dom, 1, vel, nil, s.TempBC())
		})
	})
	dt := prob.StableDt(s.Cfg.CFL)
	T := s.T.Clone()
	span("advect.step", func() {
		m["advect.step_ms"] = 1e3 * timeEach(r, 5, func() { prob.Step(T, dt) })
	})

	// fem: one fused element kernel on an element of the final mesh.
	var kern *fem.StokesKernels
	if s.Mesh.X != nil {
		kern = fem.NewStokesKernelsGeom(fem.NewElemGeom(&s.Mesh.X[0]))
	} else {
		kern = fem.NewStokesKernels(s.Cfg.Dom.ElemSize(s.Mesh.Leaves[0]))
	}
	var xe, ye [32]float64
	for i := range xe {
		xe[i] = 1 / float64(i+1)
	}
	const batch = 200
	m["fem.kernel_ns"] = 1e9 / batch * timeEachNoBarrier(n, func() {
		for i := 0; i < batch; i++ {
			kern.Apply(1.5, &xe, &ye)
		}
	})
}

// timeEachNoBarrier is timeEach for rank-local or self-synchronising calls.
func timeEachNoBarrier(n int, fn func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// replaySolver measures the solver stack bottom-up on a harness-built
// stokes.Solver: operator apply, preconditioner, one scalar V-cycle,
// hierarchy build and rebuild, the Krylov recurrence's own cost, and the
// la primitives underneath.
func (rc *rankRec) replaySolver(m map[string]float64, n, minresCap int, span func(string, func())) {
	r, s := rc.r, rc.s
	cfg := s.Cfg
	solver := stokes.Setup(s.Mesh, cfg.Dom, cfg.VelBC, stokesOptions(cfg))
	rc.solver = solver
	eta := s.ElementViscosity()
	solver.Update(eta, buoyancy(s, solver.NodeSlots()))

	x := solver.B.Clone()
	y := la.NewVec(solver.Layout)

	// matfree
	apply := func() { solver.Op.Apply(x, y) }
	var applyS float64
	span("apply", func() { applyS = timeEach(r, n, apply) })
	m["matfree.apply_ms"] = 1e3 * applyS
	m["matfree.mdof_per_s"] = float64(solver.Layout.N()) / applyS / 1e6
	c := commOf(r, apply)
	m["matfree.msgs_per_apply"] = float64(c.MsgsSent)
	m["matfree.kb_per_apply"] = float64(c.BytesSent) / 1e3
	m["matfree.allocs_per_apply"] = mallocsPer(r, n/5+1, apply)
	flops, bytes := applyTraffic(s)
	m["matfree.flop_per_byte"] = flops / bytes
	m["matfree.gbs_computed"] = bytes * float64(len(s.Mesh.Leaves)) / applyS / 1e9

	// stokes: the full block preconditioner (3 V-cycles + Schur diagonal).
	pc := solver.Precond()
	var pcS float64
	span("precond", func() { pcS = timeEach(r, n/2+1, func() { pc.Apply(x, y) }) })
	m["stokes.precond_apply_ms"] = 1e3 * pcS

	// gmg: a hierarchy of the harness's own, one scalar component.
	if cfg.Precond == stokes.PrecondGMG {
		var h *gmg.Hierarchy
		m["gmg.build_ms"] = 1e3 * timeEach(r, 1, func() { h = gmg.NewHierarchy(s.Mesh, cfg.Dom, cfg.GMG) })
		comp := h.Precond(scalarBC(cfg))
		h.Rebuild(eta)
		// Rebuild as the solver pays it per Update: three components.
		m["gmg.rebuild_ms"] = 1e3 * timeEach(r, 3, func() { solver.GMGH.Rebuild(eta) })
		xn, yn := la.NewVec(s.Mesh.Layout()), la.NewVec(s.Mesh.Layout())
		for i := range xn.Data {
			xn.Data[i] = x.Data[4*i]
		}
		vcycle := func() { comp.Apply(xn, yn) }
		span("vcycle", func() { m["gmg.vcycle_ms"] = 1e3 * timeEach(r, n/2+1, vcycle) })
		c := commOf(r, vcycle)
		m["gmg.msgs_per_vcycle"] = float64(c.MsgsSent)
		m["gmg.colls_per_vcycle"] = float64(c.CollectiveCalls)
		m["gmg.allocs_per_vcycle"] = mallocsPer(r, n/5+1, vcycle)
		le := h.LevelElems()
		m["gmg.levels"] = float64(h.NumLevels())
		m["gmg.coarse_ranks"] = float64(h.CoarseRanks())
		m["gmg.coarse_elems"] = float64(le[len(le)-1])
	}

	// krylov: a capped cold-start MINRES with counted operator and
	// preconditioner; what is left after their time is the recurrence's
	// own reductions and vector updates.
	cop, cpc := &krylov.Counted{Op: solver.Op}, &krylov.Counted{Op: pc}
	x0 := la.NewVec(solver.Layout)
	r.Barrier()
	var res krylov.Result
	var wall float64
	span("minres", func() {
		t0 := time.Now()
		res = krylov.MINRES(cop, cpc, solver.B, x0, cfg.MinresTol, minresCap)
		wall = time.Since(t0).Seconds()
	})
	if res.Iterations > 0 {
		m["krylov.self_us_per_iter"] = 1e6 * (wall - cop.Seconds - cpc.Seconds) / float64(res.Iterations)
	}

	// la: the two primitives every iteration leans on.
	gx := solver.NodeSlots().GX
	owned, ghost := make([]float64, solver.NodeSlots().NOwned), make([]float64, gx.NumGhosts())
	m["la.ghost_roundtrip_us"] = 1e6 * timeEach(r, 20*n, func() {
		gx.Gather(owned, ghost)
		gx.ScatterAdd(ghost, owned)
	})
	m["la.dot_us"] = 1e6 * timeEach(r, 20*n, func() { x.Dot(y) })
}

// scalarBC is the x-velocity component's Dirichlet set as the Stokes
// solver hands it to the scalar V-cycles: free-slip nodes count as fixed.
func scalarBC(cfg rhea.Config) fem.ScalarBC {
	return func(x [3]float64) (float64, bool) {
		if cfg.SlipBC != nil {
			if _, ok := cfg.SlipBC(x); ok {
				return 0, true
			}
		}
		if fixed, vals := cfg.VelBC(x); fixed[0] {
			return vals[0], true
		}
		return 0, false
	}
}

// applyTraffic returns the floating-point operations and the bytes one
// element of the matrix-free apply moves, computed from array sizes (no
// cache misses, no hardware counters): the fused kernel's multiply-adds,
// against its matrices (streamed per element on mapped meshes, shared
// per octree level and cache-resident on the box), the corner references
// and the gathered and accumulated dof blocks.
func applyTraffic(s *rhea.Sim) (flops, bytes float64) {
	// Per (a, b) corner pair: 3 velocity rows of 9 flops, 1 pressure row of 9.
	flops = 64 * 36
	var k fem.StokesKernels
	var ref matfree.CornerRef
	bytes = 8*float64(unsafe.Sizeof(ref)) + 3*32*8 // corner refs; read x, read+write acc
	if s.Mesh.X != nil {
		bytes += float64(unsafe.Sizeof(k.Av) + unsafe.Sizeof(k.Bd) + unsafe.Sizeof(k.Cs))
	}
	return flops, bytes
}

// triadMaxBytes caps each triad array. The guide's rule is four times the
// last-level cache, but this host's hypervisor reports the 260 MiB L3 it
// shares with other tenants, and it takes freed guest pages back, so every
// first touch is a host fault: 3 x 128 MiB cost 8 s inside a traced run
// and 3 x 1 GiB 30 s. The design probe read 9.7, 10.5, 10.5 and 11.4 GB/s
// at 64, 128, 256 and 1040 MiB per array — one core cannot pull more from
// the cache than from memory — so 32 MiB, eight times the private L2, is
// past what matters. Both sizes are reported beside the result.
const triadMaxBytes = 32 << 20

// triad measures a[i] = b[i] + s*c[i] on one core and returns GB/s with
// the array and cache sizes in MB.
func triad() (gbs, arrayMB, llcMB float64) {
	llc := llcBytes()
	bytes := 4 * llc
	if bytes > triadMaxBytes {
		bytes = triadMaxBytes
	}
	n := bytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if dt := time.Since(t0).Seconds(); dt < best {
			best = dt
		}
	}
	runtime.KeepAlive(a)
	return 3 * 8 * float64(n) / best / 1e9, float64(bytes) / 1e6, float64(llc) / 1e6
}

// llcBytes reads the largest cache of cpu0 from sysfs; 32 MiB when the
// host does not say.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		f := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(f, "K"):
			mult, f = 1<<10, strings.TrimSuffix(f, "K")
		case strings.HasSuffix(f, "M"):
			mult, f = 1<<20, strings.TrimSuffix(f, "M")
		}
		if v, err := strconv.ParseInt(f, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}
