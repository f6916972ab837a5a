package advect

import (
	"math"
	"sync"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// refQGeom is the reference quadrature geometry of element ei, computed
// from scratch: dN/h and vol/8 on axis-aligned meshes; on mapped ones the
// physical gradients J^{-T} dN and weights |det J| w exactly as mapped
// elements stored them before they kept J^{-1} instead, so a transport
// stage over these tables is the stored-gradient path bit for bit.
func refQGeom(m *mesh.Mesh, dom fem.Domain, ei int) [8]fem.QGeom {
	var Q [8]fem.QGeom
	if m.X != nil {
		X := &m.X[ei]
		for qi, q := range fem.Quad8 {
			var dN [8][3]float64
			for c := range dN {
				dN[c] = fem.ShapeGrad(c, q.Xi)
			}
			var J [3][3]float64 // J[i][j] = dx_i/dxi_j
			for c := 0; c < 8; c++ {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						J[i][j] += X[c][i] * dN[c][j]
					}
				}
			}
			det := J[0][0]*(J[1][1]*J[2][2]-J[1][2]*J[2][1]) -
				J[0][1]*(J[1][0]*J[2][2]-J[1][2]*J[2][0]) +
				J[0][2]*(J[1][0]*J[2][1]-J[1][1]*J[2][0])
			inv := 1 / det
			var Ji [3][3]float64 // J^{-1}
			Ji[0][0] = (J[1][1]*J[2][2] - J[1][2]*J[2][1]) * inv
			Ji[0][1] = (J[0][2]*J[2][1] - J[0][1]*J[2][2]) * inv
			Ji[0][2] = (J[0][1]*J[1][2] - J[0][2]*J[1][1]) * inv
			Ji[1][0] = (J[1][2]*J[2][0] - J[1][0]*J[2][2]) * inv
			Ji[1][1] = (J[0][0]*J[2][2] - J[0][2]*J[2][0]) * inv
			Ji[1][2] = (J[0][2]*J[1][0] - J[0][0]*J[1][2]) * inv
			Ji[2][0] = (J[1][0]*J[2][1] - J[1][1]*J[2][0]) * inv
			Ji[2][1] = (J[0][1]*J[2][0] - J[0][0]*J[2][1]) * inv
			Ji[2][2] = (J[0][0]*J[1][1] - J[0][1]*J[1][0]) * inv
			for c := 0; c < 8; c++ {
				for i := 0; i < 3; i++ {
					Q[qi].G[c][i] = Ji[0][i]*dN[c][0] + Ji[1][i]*dN[c][1] + Ji[2][i]*dN[c][2]
				}
			}
			Q[qi].W = q.W * math.Abs(det)
		}
		return Q
	}
	h := dom.ElemSize(m.Leaves[ei])
	for qi, q := range fem.Quad8 {
		for c := 0; c < 8; c++ {
			g := fem.ShapeGrad(c, q.Xi)
			Q[qi].G[c] = [3]float64{g[0] / h[0], g[1] / h[1], g[2] / h[2]}
		}
		Q[qi].W = q.W * h[0] * h[1] * h[2]
	}
	return Q
}

// refRateOfChange is the matrix-forming implementation RateOfChange
// replaced, kept as its oracle: corner values read by global id from
// the whole gathered vector, the stiffness, Galerkin advection and SUPG element
// matrices built by quadrature, one 8x8 product, a VecBuilder scatter and
// a lumped mass assembled the same way.
func refRateOfChange(m *mesh.Mesh, dom fem.Domain, kappa float64, vel [][8][3]float64, src func([3]float64) float64, bc fem.ScalarBC, T *la.Vec) *la.Vec {
	vals := la.GatherGlobal(T)
	rb := la.NewVecBuilder(m.Layout())
	lb := la.NewVecBuilder(m.Layout())
	for ei := range m.Leaves {
		Q := refQGeom(m, dom, ei)
		h := dom.ElemSize(m.Leaves[ei])
		if m.X != nil {
			h = fem.NewElemGeom(&m.X[ei]).H
		}
		u := &vel[ei]
		umax, ubar, _ := cornerVelStats(u)
		tau := fem.SUPGTauAniso(h, ubar, umax, kappa)
		var A [8][8]float64 // K + G + S
		var lm [8]float64
		for qi := range Q {
			q, N := &Q[qi], &fem.Quad8[qi].N
			var uq [3]float64
			for c := 0; c < 8; c++ {
				for d := 0; d < 3; d++ {
					uq[d] += u[c][d] * N[c]
				}
			}
			var ug [8]float64
			for a := 0; a < 8; a++ {
				ug[a] = uq[0]*q.G[a][0] + uq[1]*q.G[a][1] + uq[2]*q.G[a][2]
				lm[a] += q.W * N[a]
			}
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					gg := q.G[a][0]*q.G[b][0] + q.G[a][1]*q.G[b][1] + q.G[a][2]*q.G[b][2]
					A[a][b] += q.W * (kappa*gg + N[a]*ug[b] + tau*ug[a]*ug[b])
				}
			}
		}
		var Tc, R [8]float64
		for c := 0; c < 8; c++ {
			Tc[c] = cornerValue(m, vals, ei, c)
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				R[a] -= A[a][b] * Tc[b]
			}
		}
		if src != nil {
			xc := fem.ElemCornerCoords(m, dom, ei)
			for a := 0; a < 8; a++ {
				R[a] += lm[a] * src(xc[a])
			}
		}
		cs := &m.Corners[ei]
		for a := 0; a < 8; a++ {
			for k := 0; k < int(cs[a].N); k++ {
				rb.Add(m.GID(cs[a].Slot[k]), cs[a].W[k]*R[a])
				lb.Add(m.GID(cs[a].Slot[k]), cs[a].W[k]*lm[a])
			}
		}
	}
	r, lump := rb.Finalize(), lb.Finalize()
	for i := range r.Data {
		if _, is := bc(fem.NodeCoord(m, dom, i)); is {
			r.Data[i] = 0
		} else {
			r.Data[i] /= lump.Data[i]
		}
	}
	return r
}

// storedGradientRate is RateOfChange as it ran while mapped elements
// stored their physical gradients: the lumped mass, the element loop,
// the scatter and the ghost reductions of p, over refQGeom tables.
func storedGradientRate(p *Problem, T *la.Vec) *la.Vec {
	m := p.M
	for ei := range m.Leaves {
		Q := refQGeom(m, p.Dom, ei)
		lm := fem.LumpedMassQ(&Q, 1)
		p.scatter(ei, &lm)
	}
	lump := la.NewVec(m.Layout())
	p.reduce(lump)
	copy(p.tbuf, T.Data)
	m.GX.Gather(T.Data, p.tbuf[len(T.Data):])
	for ei := range m.Leaves {
		Q := refQGeom(m, p.Dom, ei)
		cs := &m.Corners[ei]
		var Tc, R [8]float64
		for c := 0; c < 8; c++ {
			Tc[c] = cs[c].Value(p.tbuf)
		}
		u := &p.Vel[ei]
		umax, ubar, _ := cornerVelStats(u)
		tau := fem.SUPGTauAniso(p.elemSize(ei), ubar, umax, p.Kappa)
		fem.TransportRate(&Q, p.Kappa, tau, u, &Tc, &R)
		if p.Source != nil {
			lm := fem.LumpedMassQ(&Q, 1)
			xc := fem.ElemCornerCoords(m, p.Dom, ei)
			for a := 0; a < 8; a++ {
				R[a] += lm[a] * p.Source(xc[a])
			}
		}
		p.scatter(ei, &R)
	}
	rate := la.NewVec(m.Layout())
	p.reduce(rate)
	for i := range rate.Data {
		var inv float64
		if !p.isBC[i] && lump.Data[i] > 0 {
			inv = 1 / lump.Data[i]
		}
		rate.Data[i] *= inv
	}
	return rate
}

// rateCase is one adapted domain for the RateOfChange comparison.
type rateCase struct {
	name string
	conn *forest.Connectivity
	geom func(*forest.Connectivity) mesh.Geometry // nil: axis-aligned box
	// bottom and top report the Dirichlet boundaries.
	bottom, top func(x [3]float64) bool
}

func rateCases() []rateCase {
	radius := func(x [3]float64) float64 { return math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2]) }
	return []rateCase{
		{"box", unitBox, nil,
			func(x [3]float64) bool { return x[2] == 0 },
			func(x [3]float64) bool { return x[2] == 1 }},
		{"brick-2x1x1", forest.BrickConnectivity(2, 1, 1),
			func(c *forest.Connectivity) mesh.Geometry { return mesh.TrilinearGeometry{Conn: c} },
			func(x [3]float64) bool { return math.Abs(x[2]) < 1e-12 },
			func(x [3]float64) bool { return math.Abs(x[2]-1) < 1e-12 }},
		{"shell", forest.CubedSphere(1),
			func(c *forest.Connectivity) mesh.Geometry { return mesh.NewShellGeometry(c) },
			func(x [3]float64) bool { return math.Abs(radius(x)-1) < 1e-9 },
			func(x [3]float64) bool { return math.Abs(radius(x)-2) < 1e-9 }},
	}
}

// adaptedMesh refines one corner region of every third tree two levels
// deep, so hanging faces and edges appear inside trees, across tree
// boundaries and across rank boundaries.
func (tc rateCase) adaptedMesh(r *sim.Rank) *mesh.Mesh {
	f := forest.New(r, tc.conn, 1)
	for pass := 0; pass < 2; pass++ {
		f.Refine(func(o forest.Octant) bool {
			return o.Tree%3 == 0 && o.O.X < morton.RootLen/2 && o.O.Z < morton.RootLen/2
		})
		f.Balance()
		f.Partition()
	}
	var g mesh.Geometry
	if tc.geom != nil {
		g = tc.geom(tc.conn)
	}
	return mesh.Extract(f, g)
}

// nodeID identifies a mesh node independently of the partition.
type nodeID struct {
	tree int32
	pos  [3]uint32
}

// TestRateOfChangeMatchesReference: on adapted meshes with hanging
// nodes, at 1, 2 and 4 ranks, the slot-space point-kernel RateOfChange
// equals the matrix-forming reference to 1e-12 and does not depend on
// the rank count, with and without a heat source. On mapped meshes it is
// also bit for bit the stored-gradient path.
func TestRateOfChangeMatchesReference(t *testing.T) {
	for _, tc := range rateCases() {
		for _, withSrc := range []bool{false, true} {
			var serial map[nodeID]float64
			for _, p := range []int{1, 2, 4} {
				var mu sync.Mutex
				got := map[nodeID]float64{}
				hanging := 0
				sim.Run(p, func(r *sim.Rank) {
					m := tc.adaptedMesh(r)
					dom := fem.UnitDomain
					bc := func(x [3]float64) (float64, bool) {
						if tc.bottom(x) {
							return 1, true
						}
						return 0, tc.top(x)
					}
					var src func([3]float64) float64
					if withSrc {
						src = func(x [3]float64) float64 { return 1 + x[0]*x[1] }
					}
					vel := make([][8][3]float64, len(m.Leaves))
					for ei := range vel {
						xc := fem.ElemCornerCoords(m, dom, ei)
						for c, x := range xc {
							vel[ei][c] = [3]float64{-x[2] + 0.3, 0.2 * x[0], x[0] - 0.1*x[1]}
						}
					}
					T := la.NewVec(m.Layout())
					for i := range T.Data {
						x := fem.NodeCoord(m, dom, i)
						T.Data[i] = math.Sin(3*x[0]) * math.Cos(2*x[1]+x[2])
					}
					prob := New(m, dom, 0.05, vel, src, bc)
					prob.ApplyBC(T)
					rate := la.NewVec(m.Layout())
					prob.RateOfChange(T, rate)
					want := refRateOfChange(m, dom, 0.05, vel, src, bc, T)

					scale := r.Allreduce(want.NormInf(), sim.OpMax)
					for i := range rate.Data {
						if d := math.Abs(rate.Data[i] - want.Data[i]); d > 1e-12*scale {
							t.Errorf("%s src %v ranks %d: node %d rate %g, reference %g (diff %g, scale %g)",
								tc.name, withSrc, p, i, rate.Data[i], want.Data[i], d, scale)
							break
						}
					}
					if m.X != nil {
						stored := storedGradientRate(prob, T)
						for i := range rate.Data {
							if rate.Data[i] != stored.Data[i] {
								t.Errorf("%s src %v ranks %d: node %d rate %v, stored-gradient path %v",
									tc.name, withSrc, p, i, rate.Data[i], stored.Data[i])
								break
							}
						}
					}
					mu.Lock()
					defer mu.Unlock()
					for i, v := range rate.Data {
						got[nodeID{m.OwnedTree[i], m.OwnedPos[i]}] = v
					}
					for ei := range m.Corners {
						for c := range m.Corners[ei] {
							if m.Corners[ei][c].Hanging() {
								hanging++
							}
						}
					}
				})
				if hanging == 0 {
					t.Fatalf("%s: adapted mesh has no hanging nodes", tc.name)
				}
				if p == 1 {
					serial = got
					continue
				}
				if len(got) != len(serial) {
					t.Fatalf("%s ranks %d: %d nodes, serial run has %d", tc.name, p, len(got), len(serial))
				}
				var scale float64
				for _, v := range serial {
					scale = math.Max(scale, math.Abs(v))
				}
				for id, v := range got {
					if d := math.Abs(v - serial[id]); d > 1e-12*scale {
						t.Errorf("%s src %v: node %v rate %g at %d ranks, %g at 1 (diff %g)", tc.name, withSrc, id, v, p, serial[id], d)
						break
					}
				}
			}
		}
	}
}

// TestRateOfChangeCounters pins what one transport stage costs in
// communication and allocation. At 2 ranks on the level-2 shell a
// RateOfChange moves exactly two user messages per (owner, referencing
// rank) pair — the ghost gather one way, the ghost scatter-add back — and
// enters no collective; at one rank a whole Step allocates nothing once
// the problem exists. The counts are logged, so
// `go test -run TestRateOfChangeCounters -count=1 -v` records them.
func TestRateOfChangeCounters(t *testing.T) {
	conn := forest.CubedSphere(2)
	setup := func(r *sim.Rank) (*Problem, *la.Vec) {
		m := mesh.Extract(forest.New(r, conn, 2), mesh.NewShellGeometry(conn))
		vel := make([][8][3]float64, len(m.Leaves))
		for ei := range vel {
			for c, x := range m.X[ei] {
				vel[ei][c] = [3]float64{-x[1], x[0], 0.1 * x[2]}
			}
		}
		T := la.NewVec(m.Layout())
		for i, x := range m.OwnedX {
			T.Data[i] = math.Sin(2*x[0]) + x[2]
		}
		return New(m, fem.UnitDomain, 1, vel, nil, fem.NoBC), T
	}

	var mu sync.Mutex
	var sent, pairs int
	sim.Run(2, func(r *sim.Rank) {
		p, T := setup(r)
		rate := la.NewVec(p.M.Layout())
		p.RateOfChange(T, rate)
		before := r.Stats()
		p.RateOfChange(T, rate)
		after := r.Stats()
		owners := map[int]bool{} // ranks this rank references nodes of
		for _, g := range p.M.GX.Ghosts() {
			owners[p.M.Layout().OwnerOf(g)] = true
		}
		msgs := after.UserMsgs - before.UserMsgs
		colls := after.CollectiveCalls - before.CollectiveCalls
		t.Logf("rank %d: %d elements, %d ghost nodes of %d rank(s): RateOfChange sent %d user messages (%d bytes), entered %d collectives",
			r.ID(), len(p.M.Leaves), p.M.GX.NumGhosts(), len(owners), msgs, after.UserBytes-before.UserBytes, colls)
		if colls != 0 || after.CollMsgs != before.CollMsgs {
			t.Errorf("rank %d: RateOfChange entered %d collectives (%d tree messages), want none",
				r.ID(), colls, after.CollMsgs-before.CollMsgs)
		}
		mu.Lock()
		sent += msgs
		pairs += len(owners)
		mu.Unlock()
	})
	if pairs == 0 || sent != 2*pairs {
		t.Errorf("RateOfChange sent %d user messages for %d (owner, referencing rank) pairs, want two per pair", sent, pairs)
	}

	sim.Run(1, func(r *sim.Rank) {
		p, T := setup(r)
		dt := p.StableDt(0.5)
		p.Step(T, dt)
		allocs := testing.AllocsPerRun(5, func() { p.Step(T, dt) })
		t.Logf("1 rank, %d elements: Step allocates %v objects", len(p.M.Leaves), allocs)
		if allocs != 0 {
			t.Errorf("Step allocates %v objects per call, want 0", allocs)
		}
	})
}

// TestNewAllocsIndependentOfElements: on a mapped mesh New reads the
// geometry the mesh caches and allocates nothing per element, so a
// shell with 8x the elements costs New the same number of allocations.
func TestNewAllocsIndependentOfElements(t *testing.T) {
	conn := forest.CubedSphere(2)
	var elems []int
	var allocs []float64
	sim.Run(1, func(r *sim.Rank) {
		for _, level := range []uint8{1, 2} {
			m := mesh.Extract(forest.New(r, conn, level), mesh.NewShellGeometry(conn))
			fem.ElemGeoms(m) // the solver builds the cached geometry first
			vel := make([][8][3]float64, len(m.Leaves))
			elems = append(elems, len(m.Leaves))
			allocs = append(allocs, testing.AllocsPerRun(3, func() { New(m, fem.UnitDomain, 1, vel, nil, fem.NoBC) }))
		}
	})
	t.Logf("New allocates %v objects on %v elements", allocs, elems)
	if allocs[0] != allocs[1] {
		t.Errorf("New allocates %v objects on %v elements: the count grows with the mesh", allocs, elems)
	}
}
