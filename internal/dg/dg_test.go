package dg

import (
	"math"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

func TestLGLNodesKnownValues(t *testing.T) {
	b1 := NewBasis(1)
	if b1.Nodes[0] != -1 || b1.Nodes[1] != 1 {
		t.Fatalf("p=1 nodes %v", b1.Nodes)
	}
	if math.Abs(b1.Weights[0]-1) > 1e-14 || math.Abs(b1.Weights[1]-1) > 1e-14 {
		t.Fatalf("p=1 weights %v", b1.Weights)
	}
	b2 := NewBasis(2)
	if math.Abs(b2.Nodes[1]) > 1e-14 {
		t.Fatalf("p=2 middle node %v", b2.Nodes[1])
	}
	want2 := []float64{1.0 / 3, 4.0 / 3, 1.0 / 3}
	for i, w := range want2 {
		if math.Abs(b2.Weights[i]-w) > 1e-13 {
			t.Fatalf("p=2 weights %v", b2.Weights)
		}
	}
	b3 := NewBasis(3)
	if math.Abs(b3.Nodes[1]+1/math.Sqrt(5)) > 1e-13 {
		t.Fatalf("p=3 interior node %v", b3.Nodes[1])
	}
	want3 := []float64{1.0 / 6, 5.0 / 6, 5.0 / 6, 1.0 / 6}
	for i, w := range want3 {
		if math.Abs(b3.Weights[i]-w) > 1e-13 {
			t.Fatalf("p=3 weights %v", b3.Weights)
		}
	}
}

func TestWeightsIntegrateExactly(t *testing.T) {
	// LGL quadrature with p+1 points is exact for degree 2p-1.
	for p := 2; p <= 8; p++ {
		b := NewBasis(p)
		for deg := 0; deg <= 2*p-1; deg++ {
			var s float64
			for i, x := range b.Nodes {
				s += b.Weights[i] * math.Pow(x, float64(deg))
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("p=%d: integral of x^%d = %v, want %v", p, deg, s, want)
			}
		}
	}
}

func TestDifferentiationExactOnPolynomials(t *testing.T) {
	for p := 1; p <= 8; p++ {
		b := NewBasis(p)
		n := p + 1
		for deg := 0; deg <= p; deg++ {
			u := make([]float64, n)
			for i, x := range b.Nodes {
				u[i] = math.Pow(x, float64(deg))
			}
			for i := 0; i < n; i++ {
				var du float64
				for j := 0; j < n; j++ {
					du += b.D[i*n+j] * u[j]
				}
				want := 0.0
				if deg > 0 {
					want = float64(deg) * math.Pow(b.Nodes[i], float64(deg-1))
				}
				if math.Abs(du-want) > 1e-10 {
					t.Fatalf("p=%d deg=%d node %d: D u = %v, want %v", p, deg, i, du, want)
				}
			}
		}
	}
}

func TestEval2DReproducesPolynomial(t *testing.T) {
	b := NewBasis(4)
	n := 5
	u := make([]float64, n*n)
	f := func(x, y float64) float64 { return 1 + x + x*y*y + y*y*y }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			u[j*n+i] = f(b.Nodes[i], b.Nodes[j])
		}
	}
	pts := [][2]float64{{0.3, -0.7}, {-1, 1}, {0, 0}, {0.99, 0.01}}
	for _, pt := range pts {
		got := b.Eval2D(u, pt[0], pt[1])
		if math.Abs(got-f(pt[0], pt[1])) > 1e-12 {
			t.Fatalf("eval2d at %v: %v want %v", pt, got, f(pt[0], pt[1]))
		}
	}
}

// derivMatrix is the matrix-based derivative of §VII, the oracle for the
// tensor-product kernel: it walks the dense n^3 x n^3 matrix of the
// derivative along axis d row by row, every column of every row.
func derivMatrix(k *Kernels, u, out []float64, d int) {
	n, D := k.N, k.B.D
	n3 := n * n * n
	for row := 0; row < n3; row++ {
		ijl := [3]int{row % n, row / n % n, row / (n * n)}
		var s float64
		for col := 0; col < n3; col++ {
			c := [3]int{col % n, col / n % n, col / (n * n)}
			if c[(d+1)%3] != ijl[(d+1)%3] || c[(d+2)%3] != ijl[(d+2)%3] {
				continue // the dense matrix is zero off the axis-d line
			}
			s += D[ijl[d]*n+c[d]] * u[col]
		}
		out[row] = s
	}
}

func TestTensorMatchesMatrixKernel(t *testing.T) {
	for _, p := range []int{2, 4, 6} {
		k := NewKernels(p)
		n3 := k.N * k.N * k.N
		u := make([]float64, n3)
		for i := range u {
			u[i] = math.Sin(float64(3*i + p))
		}
		o1 := make([]float64, n3)
		o2 := make([]float64, n3)
		for d := 0; d < 3; d++ {
			k.DerivTensor(u, o1, d)
			derivMatrix(k, u, o2, d)
			for i := range o1 {
				if math.Abs(o1[i]-o2[i]) > 1e-9 {
					t.Fatalf("p=%d d=%d node %d: tensor %v vs matrix %v", p, d, i, o1[i], o2[i])
				}
			}
		}
	}
}

// uniformX gives constant velocity along +x in tree units.
func uniformX(speed float64) VelocityFn {
	return func(f *forest.Forest, o forest.Octant) [3]float64 {
		return [3]float64{speed, 0, 0}
	}
}

func TestFreeStreamPreservation(t *testing.T) {
	// A constant field must stay exactly constant on a nonconforming
	// adapted mesh spanning multiple trees and ranks.
	c := forest.BrickConnectivity(2, 1, 1)
	for _, p := range []int{1, 3} {
		sim.Run(p, func(r *sim.Rank) {
			f := forest.New(r, c, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree == 0 && o.O.X == 0 })
			f.Balance()
			f.Partition()
			adv := NewAdvection(f, 3, uniformX(float64(morton.RootLen)),
				func(o forest.Octant, x [3]float64) float64 { return 1 })
			adv.Inflow = 1
			dt := adv.StableDt(0.5)
			for s := 0; s < 10; s++ {
				adv.Step(dt)
			}
			for i, v := range adv.U {
				if math.Abs(v-1) > 1e-10 {
					t.Fatalf("p=%d: free stream violated at %d: %v", p, i, v)
					return
				}
			}
		})
	}
}

// gaussCenter computes the mass centroid along x in tree units.
func gaussCenter(a *Advection) float64 {
	n := a.K.N
	var m, mx float64
	for ei, o := range a.F.Leaves() {
		h := float64(o.O.Len())
		jac := h * h * h / 8
		for l := 0; l < n; l++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					w := a.K.B.Weights[i] * a.K.B.Weights[j] * a.K.B.Weights[l] * jac
					v := a.U[ei*a.n3+i+n*(j+n*l)]
					// Global x for a brick laid out along the x axis: tree
					// index supplies the macro offset.
					x := float64(o.Tree)*float64(morton.RootLen) +
						float64(o.O.X) + h*(a.K.B.Nodes[i]+1)/2
					m += w * v
					mx += w * v * x
				}
			}
		}
	}
	gm := a.F.Rank().Allreduce(m, sim.OpSum)
	gmx := a.F.Rank().Allreduce(mx, sim.OpSum)
	return gmx / gm
}

func TestGaussianTransportAcrossTreeBoundary(t *testing.T) {
	c := forest.BrickConnectivity(2, 1, 1)
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, c, 2)
		R := float64(morton.RootLen)
		speed := R // one tree width per unit time
		adv := NewAdvection(f, 4, uniformX(speed), func(o forest.Octant, x [3]float64) float64 {
			// Gaussian centered in tree 0 near its +x side.
			cx, cy, cz := 0.7*R, 0.5*R, 0.5*R
			if o.Tree != 0 {
				return 0
			}
			d2 := (x[0]-cx)*(x[0]-cx) + (x[1]-cy)*(x[1]-cy) + (x[2]-cz)*(x[2]-cz)
			return math.Exp(-d2 / (0.005 * R * R))
		})
		m0 := adv.MassIntegral()
		c0 := gaussCenter(adv)
		tEnd := 0.5 // center should move 0.5 tree widths: 0.7 -> 1.2 (into tree 1)
		dt := adv.StableDt(0.6)
		steps := int(tEnd/dt) + 1
		dt = tEnd / float64(steps)
		for s := 0; s < steps; s++ {
			adv.Step(dt)
		}
		c1 := gaussCenter(adv)
		moved := (c1 - c0) / R
		if math.Abs(moved-0.5) > 0.05 {
			t.Errorf("center moved %v tree widths, want 0.5", moved)
		}
		// Mass approximately conserved (interpolation mortar + outflow).
		m1 := adv.MassIntegral()
		if math.Abs(m1-m0)/m0 > 0.02 {
			t.Errorf("mass drift: %v -> %v", m0, m1)
		}
		// Solution bounded.
		for _, v := range adv.U {
			if math.IsNaN(v) || v > 1.5 || v < -0.5 {
				t.Fatalf("solution out of bounds: %v", v)
			}
		}
	})
}

func TestSpectralAccuracyImprovesWithOrder(t *testing.T) {
	c := forest.BrickConnectivity(1, 1, 1)
	errAt := func(p int) float64 {
		var err float64
		sim.Run(1, func(r *sim.Rank) {
			f := forest.New(r, c, 1)
			R := float64(morton.RootLen)
			adv := NewAdvection(f, p, uniformX(R), func(o forest.Octant, x [3]float64) float64 {
				return math.Sin(2 * math.Pi * x[0] / R)
			})
			tEnd := 0.25
			dt := adv.StableDt(0.3)
			steps := int(tEnd/dt) + 1
			dt = tEnd / float64(steps)
			for s := 0; s < steps; s++ {
				adv.Step(dt)
			}
			// Compare in the interior region unaffected by the inflow
			// boundary (x/R > tEnd means the characteristic came from inside).
			n := adv.K.N
			var e float64
			for ei, o := range f.Leaves() {
				h := float64(o.O.Len())
				for l := 0; l < n; l++ {
					for j := 0; j < n; j++ {
						for i := 0; i < n; i++ {
							x := float64(o.O.X) + h*(adv.K.B.Nodes[i]+1)/2
							if x/R < 0.35 {
								continue
							}
							want := math.Sin(2 * math.Pi * (x/R - tEnd))
							got := adv.U[ei*adv.n3+i+n*(j+n*l)]
							if d := math.Abs(got - want); d > e {
								e = d
							}
						}
					}
				}
			}
			err = e
		})
		return err
	}
	e2 := errAt(2)
	e5 := errAt(5)
	if e5 > e2/5 {
		t.Errorf("no spectral improvement: p=2 err %v, p=5 err %v", e2, e5)
	}
}

func TestSphereAdvectionStable(t *testing.T) {
	c := forest.CubedSphere(2)
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, c, 1)
		// Lateral velocity within each tree (crude zonal wind in
		// reference coordinates).
		vel := func(ff *forest.Forest, o forest.Octant) [3]float64 {
			return [3]float64{0.3 * float64(morton.RootLen), 0, 0}
		}
		adv := NewAdvection(f, 3, vel, func(o forest.Octant, x [3]float64) float64 {
			if o.Tree == 0 {
				return 1
			}
			return 0
		})
		dt := adv.StableDt(0.4)
		for s := 0; s < 20; s++ {
			adv.Step(dt)
		}
		for _, v := range adv.U {
			if math.IsNaN(v) || v > 2 || v < -1 {
				t.Fatalf("sphere advection unstable: %v", v)
			}
		}
		// The front must have left tree 0 partially.
		ind := adv.Indicator()
		var maxInd float64
		for _, e := range ind {
			maxInd = math.Max(maxInd, e)
		}
		g := r.Allreduce(maxInd, sim.OpMax)
		if g == 0 {
			t.Error("no front structure present")
		}
	})
}

func TestAdaptationRoundTrip(t *testing.T) {
	// Refine + project: evaluating the parent's polynomial at child nodes
	// must preserve a polynomial field of degree <= p exactly.
	c := forest.BrickConnectivity(1, 1, 1)
	sim.Run(1, func(r *sim.Rank) {
		f := forest.New(r, c, 1)
		p := 3
		R := float64(morton.RootLen)
		poly := func(o forest.Octant, x [3]float64) float64 {
			u := x[0] / R
			v := x[1] / R
			return 1 + u*u*u + v*v - 2*u*v
		}
		adv := NewAdvection(f, p, uniformX(0), poly)
		old := append([]forest.Octant(nil), f.Leaves()...)
		oldU := append([]float64(nil), adv.U...)
		f.Refine(func(o forest.Octant) bool { return true })
		adv.ProjectAfterAdapt(old, oldU, uniformX(0))
		// Check nodal values against the polynomial.
		n := adv.K.N
		for ei, o := range f.Leaves() {
			h := float64(o.O.Len())
			for l := 0; l < n; l++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						x := [3]float64{
							float64(o.O.X) + h*(adv.K.B.Nodes[i]+1)/2,
							float64(o.O.Y) + h*(adv.K.B.Nodes[j]+1)/2,
							float64(o.O.Z) + h*(adv.K.B.Nodes[l]+1)/2,
						}
						want := poly(o, x)
						got := adv.U[ei*adv.n3+i+n*(j+n*l)]
						if math.Abs(got-want) > 1e-10 {
							t.Fatalf("projection error at %v: %v want %v", x, got, want)
						}
					}
				}
			}
		}
	})
}
