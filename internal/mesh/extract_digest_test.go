package mesh

// Extraction is pinned, not merely validated: the digests below were
// recorded at the commit before the node table, the merged leaf set and
// the interior-family ghost test replaced the map-based extraction (PR
// 20), over everything Extract decides — elements, corner
// classification, masters, weights, the global numbering, the owned-node
// tables, the ghost layer size and the order in which the off-rank
// masters are first referenced. A change that keeps meshes valid but
// renumbers a node, reorders the corner table or grows the ghost layer
// fails here.
//
// When the digests were recorded a corner held global ids and the mesh a
// gid-keyed gather plan in that first-reference order. Corners hold slots
// now, in compact rows (Mesh.Rows, Mesh.Hang), and the plan is the
// slot-ordered la.GhostExchange pinned by TestMeshPlanMatchesNegotiated;
// the digest reads every corner as {N, Slot, W} through m.Corner, hashes
// m.GID(slot) where it hashed the id and rebuilds the old plan's lists
// from the corner tables of all ranks, so the recorded constants still
// stand.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/sim"
)

// firstReferenced lists, per owning rank, the global ids of the off-rank
// masters of m in the order its corner table first references them.
func firstReferenced(m *Mesh) [][]int64 {
	want := make([][]int64, m.Rank.Size())
	seen := make([]bool, m.NSlots())
	for ei := range m.Rows {
		for c := 0; c < 8; c++ {
			co := m.Corner(ei, c)
			for k := 0; k < int(co.N); k++ {
				if s := co.Slot[k]; int(s) >= m.NumOwned && !seen[s] {
					seen[s] = true
					g := m.GID(s)
					o := m.Layout().OwnerOf(g)
					want[o] = append(want[o], g)
				}
			}
		}
	}
	return want
}

// meshDigest hashes the extracted mesh of rank me (FNV-64a over a fixed
// little-endian serialization); all holds every rank's mesh.
func meshDigest(all []*Mesh, me int) uint64 {
	m := all[me]
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	pos := func(p [3]uint32) { u64(posKey(p)) }
	u64(uint64(len(m.Leaves)))
	for i, o := range m.Leaves {
		u64(o.Key())
		u64(uint64(m.Trees[i]))
	}
	for ei := range m.Rows {
		for c := 0; c < 8; c++ {
			co := m.Corner(ei, c)
			pos(cornerPos(m.Leaves[ei], c))
			hang := uint64(0)
			if co.Hanging() {
				hang = 1
			}
			u64(hang<<8 | uint64(co.N))
			for k := 0; k < 4; k++ {
				if k < int(co.N) {
					u64(uint64(m.GID(co.Slot[k])))
				} else {
					u64(0)
				}
				u64(math.Float64bits(co.W[k]))
			}
		}
	}
	u64(uint64(m.NumOwned))
	u64(uint64(m.Offset))
	u64(uint64(m.NGlobal))
	for i := 0; i < m.NumOwned; i++ {
		pos(m.OwnedPos[i])
		u64(uint64(m.OwnedTree[i]))
		u64(uint64(m.OwnedCell[i].Tree))
		u64(m.OwnedCell[i].O.Key())
		pos(m.OwnedCellPos[i])
	}
	want := firstReferenced(m)
	for rk := range all {
		u64(uint64(len(want[rk])))
		for _, g := range want[rk] {
			u64(uint64(g))
		}
		asked := firstReferenced(all[rk])[me] // what rank rk wants of this rank
		u64(uint64(len(asked)))
		for _, g := range asked {
			u64(uint64(g - m.Offset))
		}
	}
	u64(uint64(m.NumGhostLeaves))
	return h.Sum64()
}

// digestMark decides refinement from the octant alone, so every rank of
// every partition marks the same leaves.
func digestMark(o forest.Octant, pass int) bool {
	x := o.O.Key()*0x9e3779b97f4a7c15 + uint64(o.Tree)*0xbf58476d1ce4e5b9 + uint64(pass)
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x%4 == 0
}

var digestCases = []struct {
	name   string
	conn   *forest.Connectivity
	geom   func(*forest.Connectivity) Geometry
	base   uint8
	passes int
}{
	{"box", forest.BrickConnectivity(1, 1, 1), func(*forest.Connectivity) Geometry { return nil }, 2, 3},
	{"brick2", forest.BrickConnectivity(2, 1, 1), func(c *forest.Connectivity) Geometry { return TrilinearGeometry{Conn: c} }, 1, 3},
	{"shell", forest.CubedSphere(2), func(c *forest.Connectivity) Geometry { return NewShellGeometry(c) }, 1, 2},
}

// pinnedDigests lists the per-rank digests of each case at each rank
// count (go test -v -run TestExtractDigestPinned logs the table rows).
var pinnedDigests = map[string][]uint64{
	"box/p=1":    {0xd85b38bf4db8cb09},
	"box/p=2":    {0xaa6b34eca12efff1, 0x7c85276f73920814},
	"box/p=4":    {0xabfea35c4cf74a45, 0x8a8ce872b4c86cac, 0xe122105e05706f2, 0x44556c831fa89dfe},
	"brick2/p=1": {0xcf5db84eb5ea9156},
	"brick2/p=2": {0xb6cec28f45e450ff, 0xb78001554cb4b43a},
	"brick2/p=4": {0xe23be6cc31d2e121, 0xf979710d491e70ea, 0x760ffa0e953c3e8e, 0x353f0792db498f60},
	"shell/p=1":  {0x71458c4174ddf69},
	"shell/p=2":  {0x86bc6ca4bf73d9ef, 0x8af78b25cc6f1af2},
	"shell/p=4":  {0x8ac2ad71bd44ad2b, 0x72a2844a636340d8, 0x32c92dcecdd6f712, 0x5f836097a7be310f},
}

func TestExtractDigestPinned(t *testing.T) {
	for _, tc := range digestCases {
		for _, p := range []int{1, 2, 4} {
			got := make([]uint64, p)
			meshes := make([]*Mesh, p)
			sim.Run(p, func(r *sim.Rank) {
				f := forest.New(r, tc.conn, tc.base)
				for pass := 0; pass < tc.passes; pass++ {
					pass := pass
					f.Refine(func(o forest.Octant) bool { return digestMark(o, pass) })
				}
				f.Balance()
				f.Partition()
				m := Extract(f, tc.geom(tc.conn))
				if m.GlobalStats().HangingLocal == 0 {
					t.Errorf("%s p=%d: no hanging corners, the case pins nothing interesting", tc.name, p)
				}
				meshes[r.ID()] = m
			})
			for rk := range got {
				got[rk] = meshDigest(meshes, rk)
			}
			key := fmt.Sprintf("%s/p=%d", tc.name, p)
			t.Logf("%q: %#v,", key, got)
			want := pinnedDigests[key]
			if len(want) != p {
				t.Errorf("%s: no pinned digests", key)
				continue
			}
			for rk := range got {
				if got[rk] != want[rk] {
					t.Errorf("%s rank %d: digest %#x, pinned %#x", key, rk, got[rk], want[rk])
				}
			}
		}
	}
}
