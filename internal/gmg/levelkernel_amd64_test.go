package gmg

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

func init() { vecLoop3 = (*level).applyVec3 }

// spacedLevel returns a level over the elements order of lv (repeats
// allowed) whose node slots are doubled: slot s becomes 2s, so every
// node's three entries are followed by three entries no element reads
// or writes.
func spacedLevel(lv *level, order []int) *level {
	m := *lv.mesh
	m.Rows = make([][8]int32, len(order))
	m.Hang = append([]mesh.Hang(nil), lv.mesh.Hang...)
	for i := range m.Hang {
		for k := range m.Hang[i].Slot {
			m.Hang[i].Slot[k] *= 2
		}
	}
	out := &level{mesh: &m, kern: lv.kern, kidx: make([]int32, len(order)), eta: make([]float64, len(order))}
	for i, ei := range order {
		for a, s := range lv.mesh.Rows[ei] {
			if s >= 0 {
				s *= 2
			}
			m.Rows[i][a] = s
		}
		out.kidx[i], out.eta[i] = lv.kidx[ei], lv.eta[ei]
	}
	return out
}

// TestLevelVectorLoopMatchesGoBitwise: the AVX2 width-3 level loop, one
// levelRun3 call over every element, hanging corners included, adds
// exactly the bits of the Go loop applyRange3, on two ranks of the front
// box at base levels 2 and 3 and of the adapted free-slip shell. Besides
// every element in mesh order, the elements are replayed as plain
// stretches of every length 0..9 between elements with a hanging corner,
// and as stretches of 1..9 consecutive elements with one between plain
// elements, the last element of the buffer hanging. Across the cases,
// edge (N = 2) and face (N = 4) hanging corners sit in each of the 8
// corner positions, and some masters are ghost slots. Node slots are
// spread out so each node's three entries, masters' included, are
// followed by sentinels, and the buffers end on a node with one more
// sentinel past their length: the unused fourth lane is neither read
// into a result nor ever written.
func TestLevelVectorLoopMatchesGoBitwise(t *testing.T) {
	if !fem.HasAVX2() {
		t.Skip("no AVX2 on this CPU: applyElems3 runs the Go loop itself")
	}
	cases := []struct {
		name  string
		build func(r *sim.Rank) *mesh.Mesh
	}{
		{"front box", func(r *sim.Rank) *mesh.Mesh { return frontBox(r, 2) }},
		{"front box 3", func(r *sim.Rank) *mesh.Mesh { return frontBox(r, 3) }},
		{"adapted shell", adaptedShell},
	}
	var mu sync.Mutex
	var seen [8][5]bool // corner position, N
	ghostMasters := 0
	for _, tc := range cases {
		sim.Run(2, func(r *sim.Rank) {
			m := tc.build(r)
			lv := newLevel(m, fem.UnitDomain, false)
			lv.eta = make([]float64, len(m.Leaves))
			var plain, hanging []int
			for ei, row := range m.Rows {
				lv.eta[ei] = math.Exp(3 * math.Sin(float64(7*ei+1)))
				isHanging := false
				for c, s := range row {
					if s >= 0 {
						continue
					}
					isHanging = true
					h := m.Hang[^s]
					mu.Lock()
					seen[c][h.N] = true
					for _, ms := range h.Slot[:h.N] {
						if int(ms) >= m.NumOwned {
							ghostMasters++
						}
					}
					mu.Unlock()
				}
				if isHanging {
					hanging = append(hanging, ei)
				} else {
					plain = append(plain, ei)
				}
			}
			if len(hanging) < 45 || len(plain) < 45 {
				t.Fatalf("%s rank %d: %d elements with hanging corners, %d without", tc.name, r.ID(), len(hanging), len(plain))
			}
			var all, runs, hangRuns []int
			for ei := range m.Rows {
				all = append(all, ei)
			}
			p, h := 0, 0
			for n := 0; n < 10; n++ {
				runs = append(runs, hanging[n])
				runs = append(runs, plain[p:p+n]...)
				p += n
				if n > 0 {
					hangRuns = append(hangRuns, plain[n])
					hangRuns = append(hangRuns, hanging[h:h+n]...)
					h += n
				}
			}
			for _, order := range [][]int{all, runs, hangRuns} {
				sl := spacedLevel(lv, order)
				n := 3 * (2*m.NSlots() - 1) // ends on the last (even) node
				sentinel := func(i int) bool { return i == n || i/3%2 == 1 }
				// A NaN in x reaching a result, or any write to a -0
				// in acc (even of +0), changes the sentinel's bits.
				x := make([]float64, n+1)
				for i := range x {
					switch {
					case sentinel(i):
						x[i] = math.NaN()
					case i%11 == 4:
						x[i] = 0
					case i%13 == 5:
						x[i] = math.Copysign(0, -1)
					default:
						x[i] = math.Sin(0.37*float64(i)) - 0.1
					}
				}
				want, got, once := make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
				for i := range want {
					want[i] = math.Cos(float64(i))
					if sentinel(i) {
						want[i] = math.Copysign(0, -1)
					}
				}
				copy(got, want)
				copy(once, want)
				sl.applyRange3(x[:n], want[:n], 0, len(order))
				sl.applyVec3(x[:n], got[:n])
				// applyVec3's one call, made here to see what it returns.
				rows := sl.mesh.Rows
				if done := levelRun3(&rows[0], &sl.kern[0], &sl.kidx[0], &sl.eta[0], unsafe.SliceData(sl.mesh.Hang), &x[0], &once[0], len(rows)); done != len(rows) {
					t.Fatalf("%s rank %d: one levelRun3 call did %d of %d elements", tc.name, r.ID(), done, len(rows))
				}
				for i := range got {
					if sentinel(i) && math.Float64bits(want[i]) != 1<<63 {
						t.Fatalf("%s rank %d: the Go loop wrote sentinel acc[%d]", tc.name, r.ID(), i)
					}
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(once[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s rank %d, %d elements: acc[%d] = %v (one call: %v), Go loop %v", tc.name, r.ID(), len(order), i, got[i], once[i], want[i])
					}
				}
			}
			if r.ID() == 0 {
				t.Logf("%s: %d elements with a hanging corner, %d without; plain stretches of 0..9 and hanging ones of 1..9 replayed", tc.name, len(hanging), len(plain))
			}
		})
	}
	for c := range seen {
		for _, n := range []int{2, 4} {
			if !seen[c][n] {
				t.Errorf("no hanging corner with %d masters in corner position %d", n, c)
			}
		}
	}
	if ghostMasters == 0 {
		t.Error("no hanging corner has a master in a ghost slot")
	}
	t.Logf("%d masters of hanging corners are ghost slots", ghostMasters)
}

// TestLevelKernelLayout guards the layout levelRun3 bakes in: fail if
// fem.SymKernel, a mesh corner row or mesh.Hang (20 B: N at 0, Slot at
// 4) changed without `go generate ./internal/gmg`.
func TestLevelKernelLayout(t *testing.T) {
	var h mesh.Hang
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"fem.SymKernel's size", unsafe.Sizeof(fem.SymKernel{}), asmKernSize},
		{"a corner row's size", unsafe.Sizeof(mesh.Mesh{}.Rows[0]), asmRowSize},
		{"mesh.Hang's size", unsafe.Sizeof(h), asmHangSize},
		{"mesh.Hang.N's offset", unsafe.Offsetof(h.N), asmHangN},
		{"mesh.Hang.Slot's offset", unsafe.Offsetof(h.Slot), asmHangSlot},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, the AVX2 loop was generated for %d: run go generate ./internal/gmg", c.what, c.got, c.want)
		}
	}
	if asmHangSize != 20 || asmHangN != 0 || asmHangSlot != 4 {
		t.Errorf("the AVX2 loop was generated for a %d-byte mesh.Hang with N at %d and Slot at %d, want 20, 0, 4", asmHangSize, asmHangN, asmHangSlot)
	}
}
