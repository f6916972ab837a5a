package matfree_test

// Direct unit tests for the matrix-free element-loop operators: the Q1
// coupled apply against an explicitly assembled CSR (on an adapted mesh,
// so hanging-node constraint weights are exercised), the sum-factorized
// Q2 apply against a CSR assembled from the naive dense reference
// kernels, slot-map invariants, and allocation-freeness of the hot
// apply path.

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"rhea/internal/advect"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/gmg"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

// dofBC reports whether dof component c (0..2 velocity, 3 pressure) of
// the node with global id g is Dirichlet-constrained, and its value.
type dofBC func(g int64, c int) (float64, bool)

// q1TestBC pins the pressure at gid 0 and (single-rank use) fixes all
// velocity components of boundary nodes to zero.
func q1TestBC(m *mesh.Mesh) dofBC {
	return func(g int64, c int) (float64, bool) {
		if c == 3 {
			return 0, g == 0
		}
		p := m.OwnedPos[g-m.Offset]
		for d := 0; d < 3; d++ {
			if p[d] == 0 || p[d] == morton.RootLen {
				return 0, true
			}
		}
		return 0, false
	}
}

// consFrom tabulates a Dirichlet condition given by global node id into
// the operator's slot-indexed constraint tables.
func consFrom(m *mesh.Mesh, bc dofBC) matfree.Constraints {
	ns := m.NSlots()
	cons := matfree.Constraints{Fixed: make([]bool, 4*ns), Val: make([]float64, 4*ns)}
	for s := 0; s < ns; s++ {
		for c := 0; c < 4; c++ {
			cons.Val[4*s+c], cons.Fixed[4*s+c] = bc(m.GID(int32(s)), c)
		}
	}
	return cons
}

// assembleQ1 builds the eliminated coupled Q1 CSR the way the stokes
// assembled path does: element matrices, hanging-node weights, skipped
// constrained rows/columns and identity diagonals.
func assembleQ1(m *mesh.Mesh, dom fem.Domain, layout *la.Layout, eta []float64, bc dofBC) *la.Mat {
	A := la.NewMat(layout)
	for ei, leaf := range m.Leaves {
		g := fem.BrickElemGeom(dom.ElemSize(leaf))
		Av := fem.ViscousGeom(g, eta[ei])
		Bd := fem.DivergenceGeom(g)
		Cs := fem.StabilizationGeom(g, eta[ei])
		var cs [8]mesh.Corner
		for a := range cs {
			cs[a] = m.Corner(ei, a)
		}
		for a := 0; a < 8; a++ {
			for ia := 0; ia < int(cs[a].N); ia++ {
				ga, wa := m.GID(cs[a].Slot[ia]), cs[a].W[ia]
				for i := 0; i < 3; i++ {
					if _, is := bc(ga, i); is {
						continue
					}
					row := 4*ga + int64(i)
					for b := 0; b < 8; b++ {
						for ib := 0; ib < int(cs[b].N); ib++ {
							gb, wb := m.GID(cs[b].Slot[ib]), cs[b].W[ib]
							w := wa * wb
							for j := 0; j < 3; j++ {
								if _, is := bc(gb, j); is {
									continue
								}
								if v := w * Av[3*a+i][3*b+j]; v != 0 {
									A.AddValue(row, 4*gb+int64(j), v)
								}
							}
							if _, is := bc(gb, 3); !is {
								if v := w * Bd[b][3*a+i]; v != 0 {
									A.AddValue(row, 4*gb+3, v)
								}
							}
						}
					}
				}
				if _, is := bc(ga, 3); is {
					continue
				}
				prow := 4*ga + 3
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						gb, wb := m.GID(cs[b].Slot[ib]), cs[b].W[ib]
						w := wa * wb
						for j := 0; j < 3; j++ {
							if _, is := bc(gb, j); is {
								continue
							}
							if v := w * Bd[a][3*b+j]; v != 0 {
								A.AddValue(prow, 4*gb+int64(j), v)
							}
						}
						if _, is := bc(gb, 3); !is {
							if v := -w * Cs[a][b]; v != 0 {
								A.AddValue(prow, 4*gb+3, v)
							}
						}
					}
				}
			}
		}
	}
	for i := 0; i < m.NumOwned; i++ {
		g := m.Offset + int64(i)
		for c := 0; c < 4; c++ {
			if _, is := bc(g, c); is {
				A.AddValue(4*g+int64(c), 4*g+int64(c), 1)
			}
		}
	}
	A.Assemble()
	return A
}

func fillTestVec(x *la.Vec) {
	for i := range x.Data {
		g := float64(x.Layout.Start() + int64(i))
		x.Data[i] = math.Sin(1.3*g) + 0.1*math.Cos(7*g)
	}
}

func maxAbsDiff(a, b *la.Vec) (diff, scale float64) {
	for i := range a.Data {
		diff = math.Max(diff, math.Abs(a.Data[i]-b.Data[i]))
		scale = math.Max(scale, math.Abs(a.Data[i]))
	}
	return
}

// TestQ1ApplyMatchesAssembled compares the matrix-free Q1 apply against
// the explicitly assembled CSR on an adapted (hanging-node) mesh.
func TestQ1ApplyMatchesAssembled(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		tr.Balance()
		tr.Partition()
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		layout := la.NewLayout(r, 4*m.NumOwned)
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1 + 0.5*math.Sin(float64(i))
		}
		bc := q1TestBC(m)
		op := matfree.New(m, dom, layout, eta, consFrom(m, bc))
		A := assembleQ1(m, dom, layout, eta, bc)

		x := la.NewVec(layout)
		fillTestVec(x)
		y1, y2 := la.NewVec(layout), la.NewVec(layout)
		op.Apply(x, y1)
		A.Apply(x, y2)
		if diff, scale := maxAbsDiff(y1, y2); diff > 1e-10*math.Max(scale, 1) {
			t.Errorf("Q1 matrix-free apply differs from assembled: max diff %v (scale %v)", diff, scale)
		}
	})
}

// q2GID returns the global id of the Q2 node in slot sl.
func q2GID(q2 *mesh.Q2Mesh, sl int32) int64 {
	if int(sl) < q2.NumOwned {
		return q2.Offset + int64(sl)
	}
	return q2.GX.Ghosts()[int(sl)-q2.NumOwned]
}

// TestQ2ApplyMatchesAssembledNaive assembles the global Taylor-Hood CSR
// from the naive dense reference kernels (fem.Q2StokesKernels) and
// checks the distributed sum-factorized apply against it to 1e-10.
func TestQ2ApplyMatchesAssembledNaive(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		q2 := mesh.ExtractQ2(tr, m)
		m.Q2 = q2
		dom := fem.UnitDomain
		layout := la.NewLayout(r, 4*q2.NumOwned)
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1 + 0.5*math.Sin(float64(i))
		}
		// Constrain the box faces' velocities, the non-vertex pressures and
		// the pressure pin, slot by slot, from the positions the elements
		// give every referenced slot.
		ns := q2.NSlots()
		cons := matfree.Constraints{Fixed: make([]bool, 4*ns), Val: make([]float64, 4*ns)}
		gid := make([]int64, ns)
		for ei, leaf := range m.Leaves {
			for n, sl := range q2.Nodes[ei] {
				p2 := mesh.Q2NodePos2(leaf, n)
				gid[sl] = q2GID(q2, sl)
				cons.Fixed[4*sl+3] = gid[sl] == 0 || !q2.IsVertex(p2)
				for d := 0; d < 3; d++ {
					if p2[d] == 0 || p2[d] == 2*morton.RootLen {
						cons.Fixed[4*sl], cons.Fixed[4*sl+1], cons.Fixed[4*sl+2] = true, true, true
					}
				}
			}
		}
		op := matfree.NewQ2(q2, dom, layout, eta, cons)
		fixed := func(sl int32, c int) bool { return cons.Fixed[4*sl+int32(c)] }

		A := la.NewMat(layout)
		for ei, leaf := range m.Leaves {
			k := fem.NewQ2StokesKernels(dom.ElemSize(leaf))
			s27 := &q2.Nodes[ei]
			for a := 0; a < 27; a++ {
				for i := 0; i < 3; i++ {
					if fixed(s27[a], i) {
						continue
					}
					row := 4*gid[s27[a]] + int64(i)
					for b := 0; b < 27; b++ {
						for j := 0; j < 3; j++ {
							if fixed(s27[b], j) {
								continue
							}
							if v := eta[ei] * k.Av[3*a+i][3*b+j]; v != 0 {
								A.AddValue(row, 4*gid[s27[b]]+int64(j), v)
							}
						}
					}
					for p := 0; p < 8; p++ {
						sp := s27[fem.Q2CornerNode(p)]
						if fixed(sp, 3) {
							continue
						}
						if v := k.Bd[p][3*a+i]; v != 0 {
							A.AddValue(row, 4*gid[sp]+3, v)
						}
					}
				}
			}
			for a := 0; a < 8; a++ {
				sa := s27[fem.Q2CornerNode(a)]
				if fixed(sa, 3) {
					continue
				}
				prow := 4*gid[sa] + 3
				for b := 0; b < 27; b++ {
					for j := 0; j < 3; j++ {
						if fixed(s27[b], j) {
							continue
						}
						if v := k.Bd[a][3*b+j]; v != 0 {
							A.AddValue(prow, 4*gid[s27[b]]+int64(j), v)
						}
					}
				}
			}
		}
		for i := 0; i < q2.NumOwned; i++ {
			g := q2.Offset + int64(i)
			for c := 0; c < 4; c++ {
				if fixed(int32(i), c) {
					A.AddValue(4*g+int64(c), 4*g+int64(c), 1)
				}
			}
		}
		A.Assemble()

		x := la.NewVec(layout)
		fillTestVec(x)
		y1, y2 := la.NewVec(layout), la.NewVec(layout)
		op.Apply(x, y1)
		A.Apply(x, y2)
		if diff, scale := maxAbsDiff(y1, y2); diff > 1e-10*math.Max(scale, 1) {
			t.Errorf("Q2 sum-factorized apply differs from naive assembled: max diff %v (scale %v)", diff, scale)
		}
	})
}

// TestSlotMapInvariants checks the structural invariants of the Q1 view
// of the mesh's numbering and of the Q2 slot map on a multi-rank mesh:
// owned slots are gid-offset, ghost slots ascend through other ranks'
// ids, constraint weights are a partition of unity, and every
// element node slot resolves to the mesh's global id.
func TestSlotMapInvariants(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		tr.Balance()
		tr.Partition()
		ma := mesh.Extract(tr, nil)
		sm := matfree.NewSlotMap(ma, 1)
		if sm.NOwned != ma.NumOwned {
			t.Fatalf("SlotMap.NOwned = %d, want %d", sm.NOwned, ma.NumOwned)
		}
		ns := sm.NSlots()
		if ns != ma.NSlots() || sm.GX != ma.GX {
			t.Fatalf("the slot map is not a view of the mesh's numbering")
		}
		for s := 0; s < sm.NOwned; s++ {
			if g := ma.GID(int32(s)); g != ma.Offset+int64(s) {
				t.Fatalf("owned slot %d has gid %d, want %d", s, g, ma.Offset+int64(s))
			}
		}
		for s := sm.NOwned; s < ns; s++ {
			g := ma.GID(int32(s))
			if ma.Layout().Owns(g) || (s > sm.NOwned && g <= ma.GID(int32(s-1))) {
				t.Fatalf("ghost slot %d has gid %d: owned here or not ascending", s, g)
			}
		}
		for ei := range sm.Corners {
			for c := 0; c < 8; c++ {
				cr := &sm.Corners[ei][c]
				if cr.N < 1 || cr.N > 4 {
					t.Fatalf("corner ref count %d out of range", cr.N)
				}
				var wsum float64
				for k := 0; k < int(cr.N); k++ {
					if s := cr.Slot[k]; s < 0 || int(s) >= ns {
						t.Fatalf("corner slot %d out of range [0,%d)", s, ns)
					}
					if cr.W[k] <= 0 {
						t.Fatalf("non-positive constraint weight %v", cr.W[k])
					}
					wsum += cr.W[k]
				}
				if math.Abs(wsum-1) > 1e-12 {
					t.Fatalf("corner weights sum to %v, want 1", wsum)
				}
			}
		}

		// The Q2 layer's slots on a uniform mesh from the same rank set:
		// the same invariants, 27 direct slots per element.
		tr2 := forest.New(r, unitBox, 2)
		m2 := mesh.Extract(tr2, nil)
		q2 := mesh.ExtractQ2(tr2, m2)
		for s := 0; s < q2.NSlots(); s++ {
			g := q2GID(q2, int32(s))
			if own := s < q2.NumOwned; own && g != q2.Offset+int64(s) ||
				!own && (q2.Layout().Owns(g) || s > q2.NumOwned && g <= q2GID(q2, int32(s-1))) {
				t.Fatalf("Q2 slot %d has gid %d: not gid-offset, owned ghost or not ascending", s, g)
			}
		}
		for ei := range q2.Nodes {
			for _, s := range q2.Nodes[ei] {
				if s < 0 || int(s) >= q2.NSlots() {
					t.Fatalf("Q2 node slot %d out of range", s)
				}
			}
		}
	})
}

// TestApplyAllocFree pins the zero-allocation property of the hot apply
// loops, Q1 and Q2.
func TestApplyAllocFree(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		dom := fem.UnitDomain

		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		layout := la.NewLayout(r, 4*m.NumOwned)
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1
		}
		bc := q1TestBC(m)
		op := matfree.New(m, dom, layout, eta, consFrom(m, bc))
		x, y := la.NewVec(layout), la.NewVec(layout)
		fillTestVec(x)
		if n := testing.AllocsPerRun(20, func() { op.Apply(x, y) }); n != 0 {
			t.Errorf("Q1 matrix-free Apply allocates %v times per run, want 0", n)
		}

		q2 := mesh.ExtractQ2(tr, m)
		m.Q2 = q2
		layout2 := la.NewLayout(r, 4*q2.NumOwned)
		cons2 := matfree.Constraints{Fixed: make([]bool, 4*q2.NSlots()), Val: make([]float64, 4*q2.NSlots())}
		for s, p2 := range q2.OwnedPos2 {
			cons2.Fixed[4*s+3] = s == 0 || !q2.IsVertex(p2)
		}
		op2 := matfree.NewQ2(q2, dom, layout2, eta, cons2)
		x2, y2 := la.NewVec(layout2), la.NewVec(layout2)
		fillTestVec(x2)
		if n := testing.AllocsPerRun(20, func() { op2.Apply(x2, y2) }); n != 0 {
			t.Errorf("Q2 sum-factorized Apply allocates %v times per run, want 0", n)
		}
	})
}

// allocsPerCall returns the heap allocations of one f() summed over all
// ranks of r's world (collective; n timed calls after one warm-up). The
// counter is process-wide, so every rank's goroutine is held at a
// barrier while rank 0 reads it.
func allocsPerCall(r *sim.Rank, n int, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	r.Barrier()
	if r.ID() == 0 {
		runtime.ReadMemStats(&m0)
	}
	r.Barrier()
	for i := 0; i < n; i++ {
		f()
	}
	r.Barrier()
	if r.ID() == 0 {
		runtime.ReadMemStats(&m1)
	}
	return r.Allreduce(float64(m1.Mallocs-m0.Mallocs), sim.OpSum) / float64(n)
}

// TestExchangeAllocsTwoRanks is the 2-rank companion of
// TestApplyAllocFree: with a neighbor to talk to, a plan-based exchange
// still allocates nothing per message in steady state. The plans keep
// their tables of outgoing and incoming sim.Payloads, a []float64 travels
// in the message's typed field instead of an `any`, the mailbox queues
// it on the sender's lane (a slice that has long grown to the deepest
// backlog) under a tag it neither hashes nor stores, and la.PutBuf hands
// the buffer back to its pool in a recycled holder. What the test still
// allows — 1 per message — is headroom for a pool refill after a GC cycle
// and for the measurement's own barriers, whose Bruck rounds do allocate.
// (Before the lanes one message cost 7: a queue object, its slice, the
// tag's ready set and that set's first entry, the []any of received
// payloads, and two boxings of the []float64; matfree.allocs_per_apply
// 16.9 and gmg.allocs_per_vcycle 331-871 were mostly that.) The blocked
// V-cycle sends one scalar cycle's messages, not three, and is held to
// the same allowance: its coarsest-level solves are substitutions with
// stored factors and allocate nothing.
func TestExchangeAllocsTwoRanks(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	sim.Run(2, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, conn, 2), g)
		sm := matfree.NewSlotMap(m, 1)
		owned := make([]float64, sm.NOwned)
		ghost := make([]float64, sm.GX.NumGhosts())
		roundTrip := func() {
			sm.GX.Gather(owned, ghost)
			sm.GX.ScatterAdd(ghost, owned)
		}
		// userMsgs counts the messages of one f() over both ranks.
		userMsgs := func(f func()) float64 {
			before := r.Stats().UserMsgs
			f()
			return r.Allreduce(float64(r.Stats().UserMsgs-before), sim.OpSum)
		}
		tripMsgs := userMsgs(roundTrip)
		trip := allocsPerCall(r, 50, roundTrip)

		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1
		}
		h := gmg.New(m, fem.UnitDomain, eta, gmg.Options{})
		boundary := func(x [3]float64) (float64, bool) {
			rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
			return 0, rad < g.RInner+1e-9 || rad > g.ROuter-1e-9
		}
		pc := h.PrecondBlock([]fem.ScalarBC{boundary, boundary, boundary})
		x, y := make([]float64, 3*m.NumOwned), make([]float64, 3*m.NumOwned)
		for i := range x {
			x[i] = math.Sin(float64(i))
		}
		cycleFn := func() { pc.ApplyStrided(x, y, 3) }
		cycleMsgs := userMsgs(cycleFn)
		cycle := allocsPerCall(r, 20, cycleFn)

		if r.ID() == 0 {
			t.Logf("allocations over both ranks: %.1f per Gather+ScatterAdd round trip (%.0f messages), %.1f per blocked V-cycle (%.0f messages, levels %v)",
				trip, tripMsgs, cycle, cycleMsgs, h.LevelElems())
		}
		// The +2 is the measurement's own barriers.
		if limit := tripMsgs + 2; trip > limit {
			t.Errorf("Gather+ScatterAdd round trip allocates %.1f times over 2 ranks, want <= %.0f (1 per message)", trip, limit)
		}
		if limit := cycleMsgs + 2; cycle > limit {
			t.Errorf("blocked V-cycle allocates %.1f times over 2 ranks, want <= %.0f (1 per message)", cycle, limit)
		}
	})
}

// TestOperatorResidentBytesMapped pins that the operator stores no
// geometry per element on a mapped mesh beyond what the mesh already
// holds: on the level-2 shell, building it on top of the shared
// fem.ElemGeoms grows the live heap by its 8-byte pointer per element into
// them (fem.ElemGeomOf), slot-space buffers and constraint index lists
// only (the 32-byte corner rows it reads are the mesh's own) — measured
// at 65 B, well under 0.5 KB per element, where a tabulated kernel per
// element took 8 KB more.
func TestOperatorResidentBytesMapped(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	sim.Run(1, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, conn, 2), g)
		geos := fem.ElemGeoms(m)
		layout := la.NewLayout(r, 4*m.NumOwned)
		cons := consFrom(m, func(g int64, c int) (float64, bool) { return 0, c == 3 && g == 0 })
		live := func() uint64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := live()
		op := matfree.New(m, fem.UnitDomain, layout, nil, cons)
		after := live()
		runtime.KeepAlive(op)
		runtime.KeepAlive(geos)
		perElem := float64(int64(after)-int64(before)) / float64(len(m.Leaves))
		t.Logf("matfree.New on %d shell elements: %.0f B/element resident", len(m.Leaves), perElem)
		if perElem >= 512 {
			t.Errorf("matfree.New keeps %.0f B per element beyond the mesh and its ElemGeoms, want < 512", perElem)
		}
	})
}

// TestCornerTableResidentBytesBox pins what a mesh holds per element to
// address its nodes: one 32-byte row of corner slots, built by the
// extraction, plus a 20-byte Hang entry per hanging corner, and nothing
// more after every consumer has run on it. On a 23k-element box refined
// along a tilted front (the shape of the benchmark's box-amr meshes, 2.06
// hanging corners per element here) the live heap grows by the rows, the
// hanging table and ~60 B of leaves and owned-node tables per element in
// Extract, by slot-space buffers in advect.New, and by slot-space
// buffers and one unit kernel per octree level — no second table, no
// per-element plan — in stokes.Setup with its GMG hierarchy. The
// harness's expanded corner table (NodeSlots) is built on request and
// must equal m.Corner(ei, c) field for field. History, measured on this
// mesh: while the hierarchy kept a (slot, elem, coef) diagonal plan per
// level and the solver a Schur plan, stokes.Setup kept 803 B per
// element; while the mesh kept the expanded 8 x 56 = 448-byte corner
// row, Extract kept 507 B and stokes.Setup 950 B per element; before the mesh
// numbered its own slots the row was 640 B (positions and global ids),
// the first NodeSlots of a mesh added a 448 B slot table on top, and
// every multigrid level mesh carried both: Extract 699 B, NodeSlots
// 448 B and Setup 1 256 B.
func TestCornerTableResidentBytesBox(t *testing.T) {
	if sz := unsafe.Sizeof(mesh.Corner{}); sz != 56 {
		t.Errorf("mesh.Corner is %d bytes, want 56 (the harness's CornerRef)", sz)
	}
	sim.Run(1, func(r *sim.Rank) {
		f := frontBox(r, 3)
		live := func() int64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		h0 := live()
		m := mesh.Extract(f, nil)
		h1 := live()
		vel := make([][8][3]float64, len(m.Leaves))
		h2 := live()
		adv := advect.New(m, fem.UnitDomain, 1, vel, nil, fem.NoBC)
		h3 := live()
		s := stokes.Setup(m, fem.UnitDomain, stokes.FreeSlip([3]float64{1, 1, 1}),
			stokes.Options{MatrixFree: true, Precond: stokes.PrecondGMG})
		h4 := live()
		runtime.KeepAlive(f)
		runtime.KeepAlive(vel)
		runtime.KeepAlive(adv)
		runtime.KeepAlive(s)

		ne := float64(len(m.Leaves))
		extract, transport, setup := float64(h1-h0)/ne, float64(h3-h2)/ne, float64(h4-h3)/ne
		t.Logf("%d elements, %d nodes, %.2f hanging corners per element, GMG levels %v: Extract %.0f B/element, advect.New %.0f, stokes.Setup %.0f",
			len(m.Leaves), m.NumOwned, float64(len(m.Hang))/ne, s.GMGH.LevelElems(), extract, transport, setup)
		if extract > 160 {
			t.Errorf("Extract keeps %.0f B per element, want <= 160 (a 32 B corner row, the hanging table and the owned-node tables)", extract)
		}
		if !sameCorners(matfree.NodeSlots(m), m) {
			t.Errorf("the NodeSlots corner table differs from m.Corner(ei, c)")
		}
		if transport > 128 {
			t.Errorf("advect.New keeps %.0f B per element, want <= 128 (buffers per node, one pointer per element)", transport)
		}
		// Measured at 375 B (803 B while the hierarchy kept a diagonal
		// plan per level and the solver a Schur plan, 16 B per term); a
		// second corner table on this mesh and its level meshes (a third as
		// many elements again) would add at least 32 x 4/3 = 43 B, an
		// expanded one 448 x 4/3 = 600 B.
		if setup > 412 {
			t.Errorf("stokes.Setup with GMG keeps %.0f B per element, want <= 412", setup)
		}
	})
}

// TestSolverResidentBytesShell pins what the Stokes solver keeps per
// element on a mapped mesh, where every element has its own geometry and
// multigrid kernel: on the uniform level-3 shell (12 288 elements, one
// rank, free-slip top as in the benchmark's shell-solve), stokes.Setup
// with GMG plus the first Update grow the live heap by the fine level's
// fem.ElemGeoms (680 B per element: J^-1 and a weight per point), each
// level's packed unit kernels (288 B per element of every level, a
// seventh again beyond the fine level) and slot-space vectors — no
// center-point cache, no diagonal or Schur plan, no full 8x8 kernels.
// Measured at 1 597 B per element, bounded at that + 10%; with full 8x8
// kernels, the two per-element (slot, elem, coef) plans, the center-point
// data and a separate prolongation buffer per level it was 2 434 B.
func TestSolverResidentBytesShell(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	sim.Run(1, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, conn, 3), g)
		eta := make([]float64, len(m.Leaves))
		for ei := range eta {
			x := m.X[ei][0]
			eta[ei] = math.Exp(math.Sin(3*x[0] + 2*x[1] - x[2]))
		}
		live := func() int64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		h0 := live()
		s := stokes.Setup(m, fem.UnitDomain, stokes.RadialNoSlipInner(g.RInner, g.ROuter), stokes.Options{
			MatrixFree: true, Precond: stokes.PrecondGMG,
			Slip: stokes.ShellSlipNormals(g.RInner, g.ROuter, false, true),
		})
		s.Update(eta, nil)
		h1 := live()
		runtime.KeepAlive(s)
		runtime.KeepAlive(eta)

		perElem := float64(h1-h0) / float64(len(m.Leaves))
		t.Logf("%d elements, GMG levels %v: stokes.Setup + Update %.0f B/element", len(m.Leaves), s.GMGH.LevelElems(), perElem)
		if perElem > 1757 {
			t.Errorf("stokes.Setup + Update keep %.0f B per element on the shell, want <= 1757", perElem)
		}
	})
}
