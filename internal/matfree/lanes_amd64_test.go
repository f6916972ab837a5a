package matfree

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestGatherScatterLanesMatchElemBitwise: gather4 fills lane l with
// exactly gatherElem's bits for element l, and scatter4 adds exactly the
// bits of scatterElem run on lanes 0..3 one after the other, on every
// group of four consecutive elements (every element in every lane) of two
// ranks of an adapted shell and a front box, whose hanging corners sit
// in every corner position with 2 and with 4 masters, some of them ghost
// slots. Node slots are spread out so that each node's block is followed
// by a sentinel block, and the buffers end with one: a NaN read from a
// sentinel or any write to a -0 one changes bits.
func TestGatherScatterLanesMatchElemBitwise(t *testing.T) {
	if !fem.HasAVX2() {
		t.Skip("no AVX2 on this CPU: New keeps the per-element loop")
	}
	shell := forest.CubedSphere(2)
	box := forest.BrickConnectivity(1, 1, 1)
	var mu sync.Mutex
	var seen [8][5]bool // corner position, N
	ghostMasters := 0
	for _, c := range []struct {
		name string
		mesh func(r *sim.Rank) *mesh.Mesh
	}{
		{"shell", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, shell, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
			f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, mesh.NewShellGeometry(shell))
		}},
		{"front box", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, box, 2)
			for pass := 0; pass < 2; pass++ {
				f.Refine(func(o forest.Octant) bool {
					lo := float64(o.O.X) + 0.3*float64(o.O.Y) + 0.2*float64(o.O.Z)
					c := 0.75 * float64(morton.RootLen)
					return lo <= c && c <= lo+2*float64(o.O.Len())
				})
			}
			f.Balance()
			f.Partition()
			return mesh.Extract(f, nil)
		}},
	} {
		sim.Run(2, func(r *sim.Rank) {
			m := c.mesh(r)
			id := fmt.Sprintf("%s rank %d", c.name, r.ID())
			// Slot s becomes 2s; odd slots and one block past the end are
			// sentinels.
			rows := make([][8]int32, len(m.Rows))
			for ei, row := range m.Rows {
				for a, s := range row {
					if s >= 0 {
						s *= 2
					}
					rows[ei][a] = s
				}
			}
			hang := append([]mesh.Hang(nil), m.Hang...)
			ghost := 0
			for i := range hang {
				for k := range hang[i].Slot[:hang[i].N] {
					if int(hang[i].Slot[k]) >= m.NumOwned {
						ghost++
					}
					hang[i].Slot[k] *= 2
				}
			}
			mu.Lock()
			for _, row := range rows {
				for a, s := range row {
					if s < 0 {
						seen[a][hang[^s].N] = true
					}
				}
			}
			ghostMasters += ghost
			mu.Unlock()
			n := 4 * (2*m.NSlots() - 1)
			sentinel := func(i int) bool { return i >= n || i/4%2 == 1 }
			src := make([]float64, n+4)
			for i := range src {
				switch {
				case sentinel(i):
					src[i] = math.NaN()
				case i%11 == 4:
					src[i] = 0
				case i%13 == 5:
					src[i] = math.Copysign(0, -1)
				default:
					src[i] = math.Sin(0.37*float64(i)) - 0.1
				}
			}
			var xe fem.Lanes4
			var xo [32]float64
			for ei := 0; ei+4 <= len(rows); ei++ {
				gather4((*[4][8]int32)(rows[ei:ei+4]), unsafe.SliceData(hang), &src[0], &xe)
				for l := 0; l < 4; l++ {
					gatherElem(&rows[ei+l], hang, src, &xo)
					for i := range xo {
						if math.Float64bits(xe[i][l]) != math.Float64bits(xo[i]) {
							t.Fatalf("%s: gather4 at element %d, lane %d: dof %d = %v, gatherElem %v", id, ei, l, i, xe[i][l], xo[i])
						}
					}
				}
			}
			want, got := make([]float64, n+4), make([]float64, n+4)
			for i := range want {
				want[i] = math.Cos(float64(i))
				if sentinel(i) {
					want[i] = math.Copysign(0, -1)
				}
			}
			copy(got, want)
			var ye fem.Lanes4
			var yo [32]float64
			for ei := 0; ei+4 <= len(rows); ei += 4 {
				for i := range ye {
					for l := range ye[i] {
						ye[i][l] = math.Sin(float64(131*ei + 7*i + l))
					}
				}
				for l := 0; l < 4; l++ {
					for i := range yo {
						yo[i] = ye[i][l]
					}
					scatterElem(&rows[ei+l], hang, &yo, want)
				}
				scatter4((*[4][8]int32)(rows[ei:ei+4]), unsafe.SliceData(hang), &ye, &got[0])
			}
			for i := range got {
				if sentinel(i) && math.Float64bits(want[i]) != 1<<63 {
					t.Fatalf("%s: scatterElem wrote sentinel dst[%d]", id, i)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: scatter4 dst[%d] = %v, scatterElem %v", id, i, got[i], want[i])
				}
			}
			t.Logf("%s: %d elements, %d hanging corners (%d masters in ghost slots): equal bit for bit", id, len(rows), len(hang), ghost)
		})
	}
	for a := range seen {
		for _, n := range []int{2, 4} {
			if !seen[a][n] {
				t.Errorf("no hanging corner with %d masters in corner position %d", n, a)
			}
		}
	}
	if ghostMasters == 0 {
		t.Error("no hanging corner has a master in a ghost slot")
	}
}

// TestLanesAsmLayout guards the layout gather4 and scatter4 bake in: fail
// if a mesh corner row, mesh.Hang (20 B: N at 0, Slot at 4) or
// fem.Lanes4 changed without `go generate ./internal/matfree`.
func TestLanesAsmLayout(t *testing.T) {
	var h mesh.Hang
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"a corner row's size", unsafe.Sizeof(mesh.Mesh{}.Rows[0]), asmRowSize},
		{"mesh.Hang's size", unsafe.Sizeof(h), asmHangSize},
		{"mesh.Hang.N's offset", unsafe.Offsetof(h.N), asmHangN},
		{"mesh.Hang.Slot's offset", unsafe.Offsetof(h.Slot), asmHangSlot},
		{"fem.Lanes4's size", unsafe.Sizeof(fem.Lanes4{}), asmLanesSize},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, the lanes' gather/scatter were generated for %d: run go generate ./internal/matfree", c.what, c.got, c.want)
		}
	}
	if asmHangSize != 20 || asmHangN != 0 || asmHangSlot != 4 {
		t.Errorf("the lanes' gather/scatter were generated for a %d-byte mesh.Hang with N at %d and Slot at %d, want 20, 0, 4", asmHangSize, asmHangN, asmHangSlot)
	}
}
