package fem

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/morton"
)

// Tests for the quadrature-point kernels: each must reproduce the
// tabulated element matrices it replaces to rounding, on every element
// shape the meshes produce.

// unitCube returns the corner coordinates of the reference cube.
func unitCube() (X [8][3]float64) {
	for c := 0; c < 8; c++ {
		X[c] = [3]float64{float64(c & 1), float64(c >> 1 & 1), float64(c >> 2 & 1)}
	}
	return
}

// shearedHex returns a randomly sheared and stretched hexahedron: the
// unit cube under a random affine map with a dominant diagonal, plus a
// small independent perturbation per corner so the Jacobian varies over
// the element.
func shearedHex(seed uint64) [8][3]float64 {
	X := unitCube()
	var A [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			A[i][j] = 0.4 * (2*hash01(seed, uint64(3*i+j)) - 1)
		}
		A[i][i] += 0.5 + 2*hash01(seed, uint64(20+i))
	}
	for c := 0; c < 8; c++ {
		x := X[c]
		for i := 0; i < 3; i++ {
			X[c][i] = A[i][0]*x[0] + A[i][1]*x[1] + A[i][2]*x[2] +
				0.1*(2*hash01(seed, uint64(100+3*c+i))-1)
		}
	}
	return X
}

// mirrored returns the left-handed image of X under x -> -x.
func mirrored(X [8][3]float64) [8][3]float64 {
	for c := range X {
		X[c][0] = -X[c][0]
	}
	return X
}

// shellElem returns the corner coordinates of one level-2 element of the
// 24-tree cubed-sphere shell: radial layer 0 touches the inner sphere,
// layer 3 the outer one.
func shellElem(tree int32, layer uint32) [8][3]float64 {
	g := mesh.NewShellGeometry(forest.CubedSphere(2))
	h := uint32(morton.RootLen) >> 2
	var X [8][3]float64
	for c := 0; c < 8; c++ {
		p := [3]uint32{h * (1 + uint32(c&1)), h * (2 + uint32(c>>1&1)), h * (layer + uint32(c>>2&1))}
		X[c] = g.NodeCoord(tree, p)
	}
	return X
}

// shellLevel2 returns the corner coordinates of every element of the
// uniform level-2 24-tree cubed-sphere shell, as mesh.Extract maps them.
func shellLevel2() [][8][3]float64 {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	h := uint32(morton.RootLen) >> 2
	var out [][8][3]float64
	for tree := int32(0); tree < int32(conn.NumTrees()); tree++ {
		for o := uint32(0); o < 64; o++ {
			var X [8][3]float64
			for c := uint32(0); c < 8; c++ {
				p := [3]uint32{h * (o&3 + c&1), h * (o>>2&3 + c>>1&1), h * (o>>4 + c>>2&1)}
				X[c] = g.NodeCoord(tree, p)
			}
			out = append(out, X)
		}
	}
	return out
}

// testElems is the element gallery the Stokes and transport kernels are
// checked on.
func testElems() map[string][8][3]float64 {
	return map[string][8][3]float64{
		"sheared-1":     shearedHex(1),
		"sheared-2":     shearedHex(2),
		"sheared-3":     shearedHex(3),
		"left-handed":   mirrored(shearedHex(4)),
		"shell-inner":   shellElem(0, 0),
		"shell-outer":   shellElem(0, 3),
		"shell-inner-7": shellElem(7, 0),
		"shell-outer-7": shellElem(7, 3),
	}
}

// testElemsAndShell is the gallery plus every element of a level-2 shell.
func testElemsAndShell() map[string][8][3]float64 {
	elems := testElems()
	for i, X := range shellLevel2() {
		elems[fmt.Sprintf("shell-L2-%d", i)] = X
	}
	return elems
}

func randVec32(seed uint64) (x [32]float64) {
	for i := range x {
		x[i] = 2*hash01(seed, uint64(i)) - 1
	}
	return
}

func normInf32(y *[32]float64) (n float64) {
	for _, v := range y {
		n = math.Max(n, math.Abs(v))
	}
	return
}

// TestStokesPointKernelMatchesTabulated: the sum-factorised kernel
// equals the tabulated element matrices and the stored-gradient point
// kernel it replaced to 1e-13, on the gallery and on every element of a
// level-2 shell.
func TestStokesPointKernelMatchesTabulated(t *testing.T) {
	for name, X := range testElemsAndShell() {
		g := NewElemGeom(&X)
		k, ref := NewStokesKernelsGeom(g), newRefElemGeom(&X)
		for _, eta := range []float64{1e-6, 1, 1e6} {
			xe := randVec32(11)
			var got, tab, old [32]float64
			g.StokesApply(eta, &xe, &got)
			k.Apply(eta, &xe, &tab)
			ref.StokesApply(eta, &xe, &old)
			for _, want := range []struct {
				what string
				y    *[32]float64
			}{{"tabulated", &tab}, {"stored-gradient", &old}} {
				tol := 1e-13 * normInf32(want.y)
				for i := range got {
					if d := math.Abs(got[i] - want.y[i]); d > tol {
						t.Errorf("%s eta %g: dof %d differs from the %s kernel by %g (tol %g)", name, eta, i, want.what, d, tol)
					}
				}
			}
		}
	}
}

// TestGradsMatchStoredGradients: the gradients ElemGeom.Grads expands
// from J^{-1} are bit for bit the ones the stored-gradient geometry
// held, as are the weights, the volume, the lumped mass and the center
// gradients, so every consumer of gradients (the assembled and multigrid
// element matrices, the Schur plan, mapped transport, the diagnostics)
// computes exactly what it did.
func TestGradsMatchStoredGradients(t *testing.T) {
	for name, X := range testElemsAndShell() {
		g, ref := NewElemGeom(&X), newRefElemGeom(&X)
		var Q [8]QGeom
		g.Grads(&Q)
		if Q != ref.Q || g.Vol != ref.Vol {
			t.Errorf("%s: expanded geometry differs from the stored gradients", name)
		}
		if lm, want := LumpedMassGeom(g, 1.7), LumpedMassQ(&ref.Q, 1.7); lm != want {
			t.Errorf("%s: lumped mass %v, stored-gradient %v", name, lm, want)
		}
		var dN, Gc [8][3]float64
		for c := range dN {
			dN[c] = ShapeGrad(c, [3]float64{0.5, 0.5, 0.5})
		}
		if det := refJacobianAt(&X, &dN, &Gc); g.Gc != Gc || g.DetC != math.Abs(det) {
			t.Errorf("%s: center gradients differ from the stored-gradient ones", name)
		}
	}
}

// TestElemGeomSize guards what a mapped element keeps resident: J^{-1}
// and a weight per point, not 24 gradients (1 096 B, the 1 152 B
// allocation class).
func TestElemGeomSize(t *testing.T) {
	if n := unsafe.Sizeof(ElemGeom{}); n > 1096 {
		t.Errorf("ElemGeom is %d B, want <= 1096", n)
	}
}

func TestStokesPointKernelSymmetric(t *testing.T) {
	for name, X := range testElems() {
		g := NewElemGeom(&X)
		for _, eta := range []float64{1e-6, 1, 1e6} {
			x, y := randVec32(21), randVec32(22)
			var Ax, Ay [32]float64
			g.StokesApply(eta, &x, &Ax)
			g.StokesApply(eta, &y, &Ay)
			var xAy, yAx, scale float64
			for i := range x {
				xAy += x[i] * Ay[i]
				yAx += y[i] * Ax[i]
				scale += math.Abs(x[i]*Ay[i]) + math.Abs(y[i]*Ax[i])
			}
			if d := math.Abs(xAy - yAx); d > 1e-13*scale {
				t.Errorf("%s eta %g: x.Ay - y.Ax = %g (scale %g)", name, eta, d, scale)
			}
		}
	}
}

// TestStokesPointKernelNullModes: the stabilization term annihilates an
// element-constant pressure, and the viscous and divergence terms a
// rigid translation.
func TestStokesPointKernelNullModes(t *testing.T) {
	for name, X := range testElems() {
		g := NewElemGeom(&X)
		for _, eta := range []float64{1e-6, 1, 1e6} {
			var xe, ye [32]float64
			for a := 0; a < 8; a++ {
				xe[4*a+3] = 0.7
			}
			g.StokesApply(eta, &xe, &ye)
			// Scale of the cancelling terms: |M p| / eta.
			tol := 1e-13 * 0.7 * g.Vol / eta
			for a := 0; a < 8; a++ {
				if math.Abs(ye[4*a+3]) > tol {
					t.Errorf("%s eta %g: constant pressure leaves row %d = %g (tol %g)", name, eta, a, ye[4*a+3], tol)
				}
			}

			xe = [32]float64{}
			for a := 0; a < 8; a++ {
				xe[4*a], xe[4*a+1], xe[4*a+2] = 0.3, -1.1, 0.6
			}
			g.StokesApply(eta, &xe, &ye)
			// Scale: eta |u| |G| W summed over the element, and |u| |G| W
			// for the divergence rows.
			gw := g.Vol / g.Hmin
			for a := 0; a < 8; a++ {
				for c := 0; c < 4; c++ {
					tol := 1e-13 * gw
					if c < 3 {
						tol *= eta / g.Hmin
					}
					if math.Abs(ye[4*a+c]) > tol {
						t.Errorf("%s eta %g: translation leaves dof (%d,%d) = %g (tol %g)", name, eta, a, c, ye[4*a+c], tol)
					}
				}
			}
		}
	}
}

func TestLoadAndLumpedMassMatchMassMatrix(t *testing.T) {
	for name, X := range testElems() {
		g := NewElemGeom(&X)
		M := MassGeom(g, 1.7)
		var f, got [8][3]float64
		for b := 0; b < 8; b++ {
			for d := 0; d < 3; d++ {
				f[b][d] = 2*hash01(31, uint64(3*b+d)) - 1
			}
		}
		g.Load(&f, &got)
		lm := LumpedMassGeom(g, 1.7)
		for a := 0; a < 8; a++ {
			var row float64
			var want [3]float64
			for b := 0; b < 8; b++ {
				row += M[a][b]
				for d := 0; d < 3; d++ {
					want[d] += M[a][b] / 1.7 * f[b][d]
				}
			}
			if math.Abs(lm[a]-row) > 1e-14*g.Vol {
				t.Errorf("%s: lumped mass row %d = %g, row sum %g", name, a, lm[a], row)
			}
			for d := 0; d < 3; d++ {
				if math.Abs(got[a][d]-want[d]) > 1e-14*g.Vol {
					t.Errorf("%s: load (%d,%d) = %g, M f = %g", name, a, d, got[a][d], want[d])
				}
			}
		}
	}
	h := [3]float64{0.01, 1, 0.25}
	lm, want := LumpedMassQ(BrickQGeom(h), 3), LumpedMassBrick(h, 3)
	for a := range lm {
		if math.Abs(lm[a]-want[a]) > 1e-15*want[a] {
			t.Errorf("brick lumped mass %d = %g, want %g", a, lm[a], want[a])
		}
	}
}

// transportCase is one transport kernel input: corner velocities and
// temperatures with O(1) entries.
func transportCase(seed uint64) (u [8][3]float64, T [8]float64) {
	for c := 0; c < 8; c++ {
		T[c] = 2*hash01(seed, uint64(c)) - 1
		for d := 0; d < 3; d++ {
			u[c][d] = 2*hash01(seed, uint64(8+3*c+d)) - 1
		}
	}
	return
}

// checkTransport compares TransportRate on Q against -(K+G+S)T.
func checkTransport(t *testing.T, name string, Q *[8]QGeom, K, G, S *[8][8]float64, kappa, tau float64, u *[8][3]float64, T *[8]float64) {
	t.Helper()
	var got, want [8]float64
	var scale float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			want[a] -= (K[a][b] + G[a][b] + S[a][b]) * T[b]
			scale = math.Max(scale, math.Abs(K[a][b])+math.Abs(G[a][b])+math.Abs(S[a][b]))
		}
	}
	TransportRate(Q, kappa, tau, u, T, &got)
	for a := range got {
		if d := math.Abs(got[a] - want[a]); d > 1e-12*scale {
			t.Errorf("%s: R[%d] = %g, -(K+G+S)T = %g (diff %g, scale %g)", name, a, got[a], want[a], d, scale)
		}
	}
}

func TestTransportPointKernelMatchesMatrices(t *testing.T) {
	const kappa, tau = 0.37, 0.21
	u, T := transportCase(41)
	for _, h := range [][3]float64{{1, 1, 1}, {0.01, 1, 0.25}, {3, 0.125, 0.5}} {
		K, G, S := StiffnessBrick(h, kappa), AdvectionBrick(h, &u), SUPGBrick(h, &u, tau)
		checkTransport(t, "brick", BrickQGeom(h), &K, &G, &S, kappa, tau, &u, &T)
	}
	for name, X := range testElems() {
		g := NewElemGeom(&X)
		var Q [8]QGeom
		g.Grads(&Q)
		K, G, S := StiffnessGeom(g, kappa), AdvectionGeom(&Q, &u), SUPGGeom(&Q, &u, tau)
		checkTransport(t, name, &Q, &K, &G, &S, kappa, tau, &u, &T)
	}
}

// TestTransportPointKernelInvariants: a constant temperature has exactly
// zero rate (the kernel differentiates T - T_0), and pure diffusion
// conserves heat (the test functions sum to one, so their gradients to
// zero).
func TestTransportPointKernelInvariants(t *testing.T) {
	u, T := transportCase(43)
	geoms := map[string]*[8]QGeom{"brick": BrickQGeom([3]float64{0.01, 1, 0.25})}
	for name, X := range testElems() {
		Q := new([8]QGeom)
		NewElemGeom(&X).Grads(Q)
		geoms[name] = Q
	}
	for name, Q := range geoms {
		var R [8]float64
		Tc := [8]float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
		TransportRate(Q, 0.37, 0.21, &u, &Tc, &R)
		if R != ([8]float64{}) {
			t.Errorf("%s: constant T gives rate %v, want exactly 0", name, R)
		}

		var zero [8][3]float64
		TransportRate(Q, 0.37, 0, &zero, &T, &R)
		var sum, scale float64
		for _, v := range R {
			sum += v
			scale += math.Abs(v)
		}
		if math.Abs(sum) > 1e-13*scale {
			t.Errorf("%s: pure diffusion rate sums to %g (scale %g)", name, sum, scale)
		}
	}
}

// In-cache cost of the two Stokes element kernels and of the transport
// kernel (one element, everything resident): the sum-factorised point
// kernel does about 1 700 flops against the tabulated kernel's ~2 300
// and streams 648 B of geometry against 6.6 KB of matrices.

var kernelSink float64

func BenchmarkStokesPointKernel(b *testing.B) {
	X := shearedHex(1)
	g := NewElemGeom(&X)
	xe := randVec32(1)
	var ye [32]float64
	for i := 0; i < b.N; i++ {
		g.StokesApply(1.5, &xe, &ye)
	}
	kernelSink = ye[0]
}

func BenchmarkStokesTabulatedKernel(b *testing.B) {
	X := shearedHex(1)
	k := NewStokesKernelsGeom(NewElemGeom(&X))
	xe := randVec32(1)
	var ye [32]float64
	for i := 0; i < b.N; i++ {
		k.Apply(1.5, &xe, &ye)
	}
	kernelSink = ye[0]
}

func BenchmarkTransportPointKernel(b *testing.B) {
	X := shearedHex(1)
	var Q [8]QGeom
	NewElemGeom(&X).Grads(&Q)
	u, T := transportCase(1)
	var R [8]float64
	for i := 0; i < b.N; i++ {
		TransportRate(&Q, 0.3, 0.2, &u, &T, &R)
	}
	kernelSink = R[0]
}
