package fem

import (
	"math"
	"sort"
	"testing"
	"unsafe"
)

// TestStokesApply4MatchesScalarBitwise: the AVX2 kernel on four elements
// writes exactly the bits of four StokesApply calls, on the gallery,
// every element of a level-2 shell and near-degenerate elements, at
// viscosities from 1e-6 to 1e6, with inputs that hold zeros of both
// signs (and one lane that is all zero), so the signs of zero products
// and sums are compared too. The lanes are read by address: four
// consecutive slab entries, entries taken out of slab order, and lanes
// that alias one brick geometry (as four bricks of one octree level do)
// or mix bricks and mapped elements.
func TestStokesApply4MatchesScalarBitwise(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2 on this CPU: the element loops run StokesApply, there is no vector kernel to compare")
	}
	gallery := testElemsAndShell()
	names := make([]string, 0, len(gallery))
	for name := range gallery {
		names = append(names, name)
	}
	sort.Strings(names)
	var elems [][8][3]float64
	for _, name := range names {
		elems = append(elems, gallery[name])
	}
	// Near-degenerate: flattened, a needle and a corner pulled almost
	// onto its neighbour.
	flat, needle, pinched := shearedHex(5), shearedHex(6), shearedHex(7)
	for c := range flat {
		flat[c][2] *= 1e-7
		needle[c][0] *= 1e-6
		needle[c][1] *= 1e-6
	}
	for i := 0; i < 3; i++ {
		pinched[7][i] = pinched[6][i] + 1e-9*(pinched[7][i]-pinched[6][i])
	}
	elems = append(elems, flat, needle, pinched, mirrored(flat))
	geos := make([]ElemGeom, len(elems))
	for i := range elems {
		geos[i].set(&elems[i])
	}
	bricks := []*ElemGeom{BrickElemGeom([3]float64{1, 1, 1}), BrickElemGeom([3]float64{0.125, 0.125, 0.0625}),
		BrickElemGeom([3]float64{1e-3, 2e-3, 5e-4})}

	checked := 0
	check := func(what string, seed int, g *[4]*ElemGeom) {
		var eta [4]float64
		var xe, ye Lanes4
		for l := range eta {
			eta[l] = math.Pow(10, -6+12*hash01(uint64(seed), uint64(l)))
			for i := range xe {
				h := hash01(uint64(seed+l), uint64(100+i))
				switch {
				case seed%7 == 2 && l == 1:
					xe[i][l] = 0
				case h < 0.15:
					xe[i][l] = 0
				case h < 0.25:
					xe[i][l] = math.Copysign(0, -1)
				default:
					xe[i][l] = 2*h - 1
				}
			}
		}
		StokesApply4(g, &eta, &xe, &ye)
		for l := range eta {
			var x, y [32]float64
			for i := range x {
				x[i] = xe[i][l]
			}
			g[l].StokesApply(eta[l], &x, &y)
			for i := range y {
				if math.Float64bits(ye[i][l]) != math.Float64bits(y[i]) {
					t.Fatalf("%s %d (lane %d, eta %g): dof %d = %v, StokesApply %v (a toolchain that fuses x*y+z into an FMA also fails here)", what, seed, l, eta[l], i, ye[i][l], y[i])
				}
			}
			checked++
		}
	}
	n := len(geos)
	for e0 := 0; e0+4 <= n; e0 += 3 {
		check("consecutive elements from", e0, &[4]*ElemGeom{&geos[e0], &geos[e0+1], &geos[e0+2], &geos[e0+3]})
	}
	for e0 := 0; e0 < n; e0 += 5 {
		check("out of slab order from", e0, &[4]*ElemGeom{&geos[(e0+3)%n], &geos[n-1-e0], &geos[e0], &geos[(7*e0+2)%n]})
	}
	for k, b := range bricks {
		check("one aliased brick", 1000+k, &[4]*ElemGeom{b, b, b, b})
		check("bricks and mapped elements", 2000+k, &[4]*ElemGeom{b, &geos[k], bricks[(k+1)%len(bricks)], b})
	}
	t.Logf("%d elements in lanes equal StokesApply bit for bit", checked)
}

// TestLanesLayout guards the struct layout the generated AVX2 kernels
// bake in: fail if ElemGeom or QJac changed without `go generate
// ./internal/fem`, instead of reading the wrong bytes.
func TestLanesLayout(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"unsafe.Sizeof(ElemGeom{})", unsafe.Sizeof(ElemGeom{}), asmGeomSize},
		{"unsafe.Sizeof(QJac{})", unsafe.Sizeof(QJac{}), asmQJacSize},
		{"unsafe.Offsetof(ElemGeom{}.Q)", unsafe.Offsetof(ElemGeom{}.Q), asmOffQ},
		{"unsafe.Offsetof(ElemGeom{}.Vol)", unsafe.Offsetof(ElemGeom{}.Vol), asmOffVol},
		{"unsafe.Offsetof(QJac{}.Ji)", unsafe.Offsetof(QJac{}.Ji), asmOffJi},
		{"unsafe.Offsetof(QJac{}.W)", unsafe.Offsetof(QJac{}.W), asmOffW},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the AVX2 kernel was generated for %d: run go generate ./internal/fem", c.what, c.got, c.want)
		}
	}
}
