package forest

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Octant identifies a leaf in the forest: a tree id plus an octant within
// that tree.
type Octant struct {
	Tree int32
	O    morton.Octant
}

// Compare orders forest octants tree-major, then along each tree's Morton
// curve (the forest-wide space-filling curve).
func Compare(a, b Octant) int {
	if a.Tree != b.Tree {
		return cmp.Compare(a.Tree, b.Tree)
	}
	return cmp.Compare(a.O.Key(), b.O.Key())
}

// Less reports whether a precedes b along the forest curve.
func Less(a, b Octant) bool { return Compare(a, b) < 0 }

// curveEnd is one past the last within-tree curve position.
const curveEnd = uint64(1) << (3 * morton.MaxLevel)

// gpos returns the forest-wide curve position of the octant's first
// finest-level descendant.
func gpos(o Octant) uint64 {
	return uint64(o.Tree)*curveEnd + o.O.Key()>>5
}

// gspan returns the curve positions covered by the octant.
func gspan(o Octant) uint64 { return levelSpan(o.O.Level) }

// levelSpan returns the curve positions covered by an octant of the
// given level.
func levelSpan(level uint8) uint64 {
	return 1 << (3 * (morton.MaxLevel - uint64(level)))
}

// Forest is one rank's partition of a distributed forest of octrees.
type Forest struct {
	Conn   *Connectivity
	rank   *sim.Rank
	leaves []Octant
	starts []uint64 // per-rank first curve position; len Size+1
}

const octantBytes = 20

// New builds a forest uniformly refined to the given level, leaves
// distributed evenly along the forest curve (collective).
func New(r *sim.Rank, conn *Connectivity, level uint8) *Forest {
	f := &Forest{Conn: conn, rank: r}
	perTree := int64(1) << (3 * int64(level))
	total := perTree * int64(conn.NumTrees())
	lo, hi := shareRange(total, int64(r.Size()), int64(r.ID()))
	f.leaves = make([]Octant, 0, hi-lo)
	for g := lo; g < hi; g++ {
		tree := int32(g / perTree)
		idx := uint64(g % perTree)
		key := idx << (3 * (morton.MaxLevel - uint64(level)))
		f.leaves = append(f.leaves, Octant{Tree: tree, O: morton.FromKey(key<<5 | uint64(level))})
	}
	f.updateStarts()
	return f
}

// FromLeaves builds a forest partition directly from a rank's local
// leaves (collective: it exchanges the partition markers). The leaves
// must be sorted along the forest curve and globally tile the domain —
// true for any slice recovered from another Forest's or an extracted
// mesh's leaves. Solver layers that only hold a mesh use this to derive
// coarser multigrid levels.
func FromLeaves(r *sim.Rank, conn *Connectivity, leaves []Octant) *Forest {
	f := &Forest{Conn: conn, rank: r}
	f.leaves = append([]Octant(nil), leaves...)
	f.updateStarts()
	return f
}

func shareRange(total, p, i int64) (lo, hi int64) {
	q, rem := total/p, total%p
	lo = q*i + min(i, rem)
	hi = lo + q
	if i < rem {
		hi++
	}
	return
}

// CoarsenedCopy returns a new forest one geometric level coarser: every
// complete locally owned family is merged into its parent, then 2:1
// balance is restored (collective). The receiver is unchanged. Families
// split across rank boundaries stay refined, preserving each rank's curve
// coverage — the invariant multigrid level extraction needs. The second
// return is the number of families merged globally; zero means the forest
// cannot be coarsened further under the current partition.
func (f *Forest) CoarsenedCopy() (*Forest, int64) {
	c := &Forest{Conn: f.Conn, rank: f.rank}
	c.leaves = append([]Octant(nil), f.leaves...)
	c.updateStarts()
	n := c.Coarsen(func(Octant) bool { return true })
	merged := f.rank.AllreduceInt64(int64(n))
	if merged > 0 {
		c.Balance()
	}
	return c, merged
}

// Rank returns the communicator rank.
func (f *Forest) Rank() *sim.Rank { return f.rank }

// Leaves returns the local leaves in forest-curve order.
func (f *Forest) Leaves() []Octant { return f.leaves }

// NumLocal returns the local leaf count.
func (f *Forest) NumLocal() int { return len(f.leaves) }

// NumGlobal returns the global leaf count (collective).
func (f *Forest) NumGlobal() int64 { return f.rank.AllreduceInt64(int64(len(f.leaves))) }

func (f *Forest) updateStarts() {
	sentinel := uint64(f.Conn.NumTrees()) * curveEnd
	my := sentinel
	if len(f.leaves) > 0 {
		my = gpos(f.leaves[0])
	}
	raw := f.rank.AllgatherUint64(my)
	p := f.rank.Size()
	starts := make([]uint64, p+1)
	starts[p] = sentinel
	for i := p - 1; i >= 0; i-- {
		if raw[i] == sentinel {
			starts[i] = starts[i+1]
		} else {
			starts[i] = raw[i]
		}
	}
	starts[0] = 0
	f.starts = starts
}

// Owners appends the ranks whose curve segment overlaps octant o.
func (f *Forest) Owners(o Octant, dst []int) []int {
	return f.owners(gpos(o), gspan(o), dst)
}

// owners appends the ranks whose curve segment overlaps the span curve
// positions from lo.
func (f *Forest) owners(lo, span uint64, dst []int) []int {
	hi := lo + span
	i := sort.Search(len(f.starts), func(i int) bool { return f.starts[i] > lo }) - 1
	if i < 0 {
		i = 0
	}
	for ; i < f.rank.Size(); i++ {
		if f.starts[i] >= hi {
			break
		}
		if f.starts[i+1] > lo {
			dst = append(dst, i)
		}
	}
	return dst
}

// Refine replaces marked leaves by their children (local).
func (f *Forest) Refine(should func(Octant) bool) int {
	out := make([]Octant, 0, len(f.leaves))
	n := 0
	for _, o := range f.leaves {
		if o.O.Level < morton.MaxLevel && should(o) {
			for i := 0; i < 8; i++ {
				out = append(out, Octant{Tree: o.Tree, O: o.O.Child(i)})
			}
			n++
		} else {
			out = append(out, o)
		}
	}
	f.leaves = out
	f.updateStarts()
	return n
}

// Coarsen merges complete local families whose predicate holds (local).
func (f *Forest) Coarsen(should func(parent Octant) bool) int {
	return f.coarsen(func(_ int, parent Octant) bool { return should(parent) })
}

// ExchangeOctants sends byRank[j] to rank j, for every j with something
// to send, and returns the octants received, concatenated in source-rank
// order (collective).
func (f *Forest) ExchangeOctants(byRank [][]Octant) []Octant {
	var dests []int
	var out []any
	var nb []int
	for j, s := range byRank {
		if len(s) == 0 {
			continue
		}
		dests = append(dests, j)
		out = append(out, s)
		nb = append(nb, octantBytes*len(s))
	}
	_, in := f.rank.AlltoallvSparse(dests, out, nb)
	var got []Octant
	for _, d := range in {
		got = append(got, d.([]Octant)...)
	}
	return got
}

// Partition redistributes leaves evenly along the forest curve
// (collective). It returns each previously local leaf's destination rank.
func (f *Forest) Partition() []int {
	p := int64(f.rank.Size())
	local := int64(len(f.leaves))
	total := f.rank.AllreduceInt64(local)
	first := f.rank.ExScan(local)
	dest := make([]int, local)
	byRank := make([][]Octant, p)
	for i := int64(0); i < local; i++ {
		g := first + i
		d := destRank(g, total, p)
		dest[i] = int(d)
		byRank[d] = append(byRank[d], f.leaves[i])
	}
	// Sources arrive sorted by rank, so the concatenation stays in curve
	// order.
	f.leaves = f.ExchangeOctants(byRank)
	f.updateStarts()
	return dest
}

func destRank(g, total, p int64) int64 {
	if total == 0 {
		return 0
	}
	q, rem := total/p, total%p
	cut := (q + 1) * rem
	if g < cut {
		return g / (q + 1)
	}
	if q == 0 {
		return p - 1
	}
	return rem + (g-cut)/q
}

// FindContaining returns the local leaf equal to or an ancestor of o.
func (f *Forest) FindContaining(o Octant) (Octant, int, bool) {
	i := sort.Search(len(f.leaves), func(i int) bool {
		li := f.leaves[i]
		if li.Tree != o.Tree {
			return li.Tree > o.Tree
		}
		return li.O.Key() > o.O.Key()
	})
	if i == 0 {
		return Octant{}, -1, false
	}
	l := f.leaves[i-1]
	if l.Tree == o.Tree && l.O.ContainsOrEqual(o.O) {
		return l, i - 1, true
	}
	return Octant{}, -1, false
}

// LevelCounts returns the global leaf count per level (collective).
func (f *Forest) LevelCounts() []int64 {
	counts := make([]float64, morton.MaxLevel+1)
	for _, o := range f.leaves {
		counts[o.O.Level]++
	}
	tot := f.rank.AllreduceVec(counts)
	out := make([]int64, len(tot))
	for i, v := range tot {
		out[i] = int64(v)
	}
	return out
}

// MinMaxLevel returns the global minimum and maximum leaf level
// (collective). For an empty global forest it returns (0, 0).
func (f *Forest) MinMaxLevel() (uint8, uint8) {
	lo, hi := float64(morton.MaxLevel+1), float64(-1)
	for _, o := range f.leaves {
		lo = math.Min(lo, float64(o.O.Level))
		hi = math.Max(hi, float64(o.O.Level))
	}
	glo := f.rank.Allreduce(lo, sim.OpMin)
	ghi := f.rank.Allreduce(hi, sim.OpMax)
	if ghi < 0 {
		return 0, 0
	}
	return uint8(glo), uint8(ghi)
}

// LeafKeys returns this rank's leaves as parallel (tree id, Morton key)
// slices in forest-curve order — the serialization of one rank's forest
// partition. A forest rebuilt on the same communicator and connectivity
// with FromKeys is identical to the receiver, including the partition
// boundaries.
func (f *Forest) LeafKeys() (trees []int32, keys []uint64) {
	trees = make([]int32, len(f.leaves))
	keys = make([]uint64, len(f.leaves))
	for i, o := range f.leaves {
		trees[i] = o.Tree
		keys[i] = o.O.Key()
	}
	return trees, keys
}

// FromKeys rebuilds a forest partition from the slices produced by
// LeafKeys (collective: it exchanges the partition markers). It
// validates tree ids, octant admissibility and strict curve order and
// returns an error before any collective call on bad input, so every
// rank either proceeds into the collective exchange or none does when
// validation fails deterministically from the same inputs.
func FromKeys(r *sim.Rank, conn *Connectivity, trees []int32, keys []uint64) (*Forest, error) {
	if len(trees) != len(keys) {
		return nil, fmt.Errorf("forest: %d tree ids for %d leaf keys", len(trees), len(keys))
	}
	leaves := make([]Octant, len(keys))
	for i, k := range keys {
		o := morton.FromKey(k)
		if !o.Valid() || o.Key() != k {
			return nil, fmt.Errorf("forest: leaf key %d (%#x) does not decode to an admissible octant", i, k)
		}
		if trees[i] < 0 || int(trees[i]) >= conn.NumTrees() {
			return nil, fmt.Errorf("forest: leaf %d names tree %d outside the %d-tree connectivity", i, trees[i], conn.NumTrees())
		}
		leaves[i] = Octant{Tree: trees[i], O: o}
		if i > 0 && !Less(leaves[i-1], leaves[i]) {
			return nil, fmt.Errorf("forest: leaf keys out of curve order at %d", i)
		}
	}
	f := &Forest{Conn: conn, rank: r, leaves: leaves}
	f.updateStarts()
	return f, nil
}
