package forest

import (
	"math/bits"
	"slices"

	"rhea/internal/morton"
)

// curveOct is a leaf in curve space — the forest-wide position of its
// first finest-level descendant, and its level — where children and
// containment are integer arithmetic. fresh marks a leaf that has not
// issued its demands yet.
type curveOct struct {
	pos   uint64
	level uint8
	fresh bool
}

func (a curveOct) octant() Octant {
	return Octant{Tree: int32(a.pos / curveEnd), O: morton.FromKey(a.pos%curveEnd<<5 | uint64(a.level))}
}

// A demand states one 2:1 requirement: no leaf may strictly contain the
// octant (pos, level). It is packed into one integer, so that an integer
// sort orders demands along the curve: pos with the middle of the
// octant's curve range marked (the highest bit an octant of that level
// leaves zero; demands are parents' neighbours, never at MaxLevel). The
// key lies inside the octant's range, so comparing it with the ends of
// disjoint octants no finer than the demand, which is all apply and split
// do, places it as pos would; the trailing zeros give the level back.
func demandKey(pos uint64, level uint8) uint64 {
	return pos | 1<<(3*(morton.MaxLevel-uint(level))-1)
}

func demandLevel(key uint64) uint8 {
	return uint8(morton.MaxLevel - (bits.TrailingZeros64(key)+1)/3)
}

// cornerMask[c] is the set of directions d != 0 with d_a in {0, s_a},
// s_a = +1 if child id c has bit a set and -1 otherwise, as bits
// (d_x+1) + 3(d_y+1) + 9(d_z+1) of a 27-bit mask: the seven directions
// that leave a parent on child c's own corner's side. A step against s_a
// stays inside the parent, so the 26 neighbours of child c lie in the
// parent or in the parent's neighbours in these directions, which are
// therefore all a leaf has to ask about. Seen from the opposite child
// 7-c the same directions lead to its siblings.
var cornerMask = func() (m [8]uint32) {
	for c := range m {
		for k := 1; k < 8; k++ {
			bit := 13 // direction (0,0,0)
			for a, w := 0, 1; a < 3; a, w = a+1, 3*w {
				if k>>a&1 != 0 {
					bit += w * (2*(c>>a&1) - 1)
				}
			}
			m[c] |= 1 << bit
		}
	}
	return m
}()

// balancer is the working state of one Balance call.
type balancer struct {
	f      *Forest
	leaves []curveOct               // in curve order, tiling this rank's segment
	todo   [morton.MaxLevel + 1]int // fresh leaves per level
	spare  []curveOct               // the merge pass's other buffer
	dem    []uint64                 // the demands apply merges next (demandKey)
}

// Balance enforces the full face+edge+corner 2:1 condition, within each
// tree and across tree boundaries (following face-connection transforms,
// including the two- and three-hop compositions that reach neighbors
// across tree edges and corners), collectively. The full inter-tree
// condition is what makes conforming mesh extraction sound: every master
// of a hanging node is itself independent, even when the hanging face
// lies on a tree boundary. It returns the number of leaves added.
//
// The balanced closure of a forest is unique; only the cost depends on
// how it is reached (docs/ARCHITECTURE.md, "Adaptation on sorted
// arrays"). Each round sweeps the sorted leaf array from the finest level
// to the coarsest, sends the demands that fall outside this rank's curve
// segment to the ranks that own them, applies what it received, and stops
// when no rank split a leaf for a neighbour.
func (f *Forest) Balance() int {
	b := balancer{f: f, leaves: make([]curveOct, len(f.leaves))}
	for i, o := range f.leaves {
		b.leaves[i] = curveOct{pos: gpos(o), level: o.O.Level, fresh: true}
		b.todo[o.O.Level]++
	}
	var remote []Octant
	for {
		remote = b.sweep(remote[:0])
		for _, q := range f.exchange(remote) {
			b.dem = append(b.dem, demandKey(gpos(q), q.O.Level))
		}
		changed := int64(0)
		if b.apply() {
			changed = 1
		}
		if f.rank.AllreduceInt64(changed) == 0 {
			break
		}
	}
	added := len(b.leaves) - len(f.leaves)
	if added > 0 {
		f.leaves = make([]Octant, len(b.leaves))
		for i, a := range b.leaves {
			f.leaves[i] = a.octant()
		}
	}
	f.updateStarts()
	return added
}

// sweep lets every fresh leaf issue its demands, finest level first, and
// applies the local ones level by level; those not inside this rank's
// segment are appended to remote. A level-L leaf demands that its parent's
// neighbours in its cornerMask directions not lie strictly inside a leaf.
// The leaves a pass creates are coarser than L and fresh, so a later pass
// of the same sweep reaches them: on return no local leaf is fresh.
func (b *balancer) sweep(remote []Octant) []Octant {
	f := b.f
	lo, hi := f.starts[f.rank.ID()], f.starts[f.rank.ID()+1]
	for level := morton.MaxLevel; level >= 2; level-- {
		if b.todo[level] == 0 {
			continue
		}
		b.todo[level] = 0
		shift := 3 * uint(morton.MaxLevel-level) // a level's child id sits above this many bits
		var parent Octant
		parentPos, asked := ^uint64(0), uint32(0)
		for i := range b.leaves {
			a := &b.leaves[i]
			if !a.fresh || int(a.level) != level {
				continue
			}
			a.fresh = false
			// Fresh siblings are visited back to back (only their own
			// descendants lie between them on the curve), so one mask per
			// parent keeps a family from asking twice. It starts with the
			// directions of the parent's own siblings: their common parent
			// contains this leaf, so no leaf contains them.
			if pp := a.pos &^ (8<<shift - 1); pp != parentPos {
				parentPos, asked = pp, cornerMask[7-(pp>>(shift+3)&7)]
				parent = curveOct{pos: pp, level: a.level - 1}.octant()
			}
			ask := cornerMask[a.pos>>shift&7] &^ asked
			asked |= ask
			for ; ask != 0; ask &= ask - 1 {
				bit := bits.TrailingZeros32(ask)
				q, ok := f.Neighbor(parent, [3]int{bit%3 - 1, bit/3%3 - 1, bit/9 - 1})
				if !ok {
					continue
				}
				if qp := gpos(q); lo <= qp && qp+gspan(q) <= hi {
					b.dem = append(b.dem, demandKey(qp, q.O.Level))
				} else {
					remote = append(remote, q)
				}
			}
		}
		b.apply()
	}
	return remote
}

// apply sorts the collected demands along the curve and merges them with
// the leaf array in one pass, replacing every leaf that strictly contains
// a demand by the minimal refinement that does not. It consumes the
// demands and reports whether any leaf was split.
func (b *balancer) apply() bool {
	dem := b.dem
	b.dem = dem[:0]
	if len(dem) == 0 || len(b.leaves) == 0 {
		return false
	}
	slices.Sort(dem)
	j := 0
	for j < len(dem) && dem[j] < b.leaves[0].pos {
		j++ // reaches back into an earlier rank's segment: inside no leaf of this one
	}
	var out []curveOct // nil until the first split
	for i, a := range b.leaves {
		if j == len(dem) {
			if out != nil {
				out = append(out, b.leaves[i:]...)
			}
			break
		}
		end := a.pos + levelSpan(a.level)
		j0, deeper := j, false
		for ; j < len(dem) && dem[j] < end; j++ {
			deeper = deeper || demandLevel(dem[j]) > a.level
		}
		switch {
		case deeper:
			if out == nil {
				out = append(b.spare[:0], b.leaves[:i]...)
			}
			if a.fresh {
				b.todo[a.level]--
			}
			out = b.split(out, a, dem[j0:j])
		case out != nil:
			out = append(out, a)
		}
	}
	if out == nil {
		return false
	}
	b.leaves, b.spare = out, b.leaves
	return true
}

// split appends to out, in curve order, the coarsest refinement of leaf a
// in which no leaf strictly contains one of dem: the demands inside a,
// sorted, at least one of them finer than a. The new leaves are fresh.
func (b *balancer) split(out []curveOct, a curveOct, dem []uint64) []curveOct {
	ch := curveOct{pos: a.pos, level: a.level + 1, fresh: true}
	for c := 0; c < 8; c++ {
		end := ch.pos + levelSpan(ch.level)
		k, deeper := 0, false
		for ; k < len(dem) && dem[k] < end; k++ {
			deeper = deeper || demandLevel(dem[k]) > ch.level
		}
		if deeper {
			out = b.split(out, ch, dem[:k])
		} else {
			out = append(out, ch)
			b.todo[ch.level]++
		}
		dem = dem[k:]
		ch.pos = end
	}
	return out
}

// Contains reports whether octant o lies entirely inside this rank's
// curve segment: only then can a local leaf be o or contain it.
func (f *Forest) Contains(o Octant) bool {
	lo := gpos(o)
	me := f.rank.ID()
	return f.starts[me] <= lo && lo+gspan(o) <= f.starts[me+1]
}

// exchange sends each request to the other ranks whose segment overlaps
// it and returns the requests received (collective).
func (f *Forest) exchange(reqs []Octant) []Octant {
	byRank := make([][]Octant, f.rank.Size())
	var owners []int
	for _, n := range reqs {
		owners = f.Owners(n, owners[:0])
		for _, rk := range owners {
			if rk != f.rank.ID() {
				byRank[rk] = append(byRank[rk], n)
			}
		}
	}
	return f.ExchangeOctants(byRank)
}
