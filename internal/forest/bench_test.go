package forest

import (
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// cutsFront reports whether the octant straddles a tilted plane through
// its tree: the sharp front the adapted benchmark forests refine towards.
func cutsFront(o Octant) bool {
	f := func(x, y, z uint32) int64 { return 4*int64(x) + 2*int64(y) + int64(z) - 3*morton.RootLen }
	h := o.O.Len()
	lo, hi := f(o.O.X, o.O.Y, o.O.Z), f(o.O.X+h, o.O.Y+h, o.O.Z+h)
	return lo <= 0 && hi >= 0
}

// hashMark is a deterministic pseudo-random predicate on octants.
func hashMark(o Octant, salt, mod uint64) bool {
	x := (o.O.Key()+salt)*0x9e3779b97f4a7c15 + uint64(o.Tree)
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x%mod == 0
}

// frontForest builds a balanced forest refined from base to max along the
// front on one rank, then re-adapts it the way one cycle of the time loop
// does (some families coarsened, some leaves refined) without balancing:
// the input Balance sees every cycle.
func frontForest(r *sim.Rank, c *Connectivity, base, max uint8) *Forest {
	f := New(r, c, base)
	for l := base; l < max; l++ {
		f.Refine(func(o Octant) bool { return cutsFront(o) })
	}
	f.Balance()
	f.Coarsen(func(p Octant) bool { return p.O.Level >= base && hashMark(p, 1, 3) })
	f.Refine(func(o Octant) bool { return o.O.Level < max && hashMark(o, 2, 40) })
	return f
}

// BenchmarkBalance times Balance on one rank on the box-amr-like adapted
// level-3..6 box and on the adapted 24-tree shell.
func BenchmarkBalance(b *testing.B) {
	for _, bc := range []struct {
		name      string
		conn      *Connectivity
		base, max uint8
	}{
		{"box", BrickConnectivity(1, 1, 1), 3, 6},
		{"shell", CubedSphere(2), 1, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sim.Run(1, func(r *sim.Rank) {
				in := frontForest(r, bc.conn, bc.base, bc.max)
				var leaves, added int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f := FromLeaves(r, bc.conn, in.leaves)
					b.StartTimer()
					added = f.Balance()
					leaves = f.NumLocal()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves), "ns/leaf")
				b.ReportMetric(float64(leaves), "leaves")
				b.ReportMetric(float64(added), "added")
			})
		})
	}
}
