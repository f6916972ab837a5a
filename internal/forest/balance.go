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
	lo, hi uint64                   // this rank's curve segment
	leaves []curveOct               // in curve order, tiling this rank's segment
	todo   [morton.MaxLevel + 1]int // fresh leaves per level
	spare  []curveOct               // the merge pass's other buffer
	dem    []uint64                 // the demands apply merges next (demandKey)
	// With collect set, a sweep follows every demand that falls in one
	// other rank's segment: virt holds them by level until their
	// consequences are drawn, and send, per rank, those that enter the
	// rank's segment from outside it. Without it they are dropped.
	collect bool
	virt    [morton.MaxLevel + 1][]uint64
	send    [][]uint64
	owners  []int
	// seen is a direct-mapped cache of the demand keys filed lately:
	// neighbouring families ask about the same octants, and a repeat is
	// dropped before it costs a search, a place in a sort or a message.
	// A key is never 0 (demandKey), so an empty slot matches none.
	seen [1 << seenBits]uint64
}

const seenBits = 10

// repeat reports whether key is in the seen cache, and puts it there.
func (b *balancer) repeat(key uint64) bool {
	slot := &b.seen[key*0x9e3779b97f4a7c15>>(64-seenBits)]
	if *slot == key {
		return true
	}
	*slot = key
	return false
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
// arrays"). Balance reaches it in one exchange (Isaac, Burstedde and
// Ghattas, "Low-cost parallel algorithms for 2:1 octree balance", IPDPS
// 2012): each rank sweeps its sorted leaf array from the finest level to
// the coarsest, following each demand that leaves its segment through the
// other segments too, so that every rank learns, at the point where it
// enters, each requirement this rank's leaves impose on it. Each rank
// then sends each other rank those entry demands once, and applies and
// sweeps what it received, locally.
func (f *Forest) Balance() int {
	me := f.rank.ID()
	b := balancer{f: f, lo: f.starts[me], hi: f.starts[me+1], leaves: make([]curveOct, len(f.leaves)),
		collect: true, send: make([][]uint64, f.rank.Size())}
	for i, o := range f.leaves {
		b.leaves[i] = curveOct{pos: gpos(o), level: o.O.Level, fresh: true}
		b.todo[o.O.Level]++
	}
	b.sweep()
	b.dem = append(b.dem, exchangeSparse(f.rank, b.send, 8)...)
	b.collect = false
	b.apply()
	b.sweep()
	added := len(b.leaves) - len(f.leaves)
	if added > 0 {
		f.leaves = make([]Octant, len(b.leaves))
		for i, a := range b.leaves {
			f.leaves[i] = a.octant()
		}
	}
	return added
}

// sweep lets every fresh leaf issue its demands, finest level first, and
// applies the local ones level by level. A level-L leaf demands that its
// parent's neighbours in its cornerMask directions not lie strictly
// inside a leaf. The leaves a pass creates are coarser than L and fresh,
// so a later pass of the same sweep reaches them: on return no local leaf
// is fresh. With collect set, the demands that fall in another rank's
// segment are followed too (follow).
func (b *balancer) sweep() {
	f := b.f
	for level := morton.MaxLevel; level >= 2; level-- {
		shift := 3 * uint(morton.MaxLevel-level) // a level's child id sits above this many bits
		if b.todo[level] > 0 {
			b.todo[level] = 0
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
				}
				ask := cornerMask[a.pos>>shift&7] &^ asked
				asked |= ask
				for ; ask != 0; ask &= ask - 1 {
					if qp, ok := f.neighborPos(parentPos, a.level-1, bits.TrailingZeros32(ask)); ok {
						b.demand(qp, a.level-1, f.rank.ID())
					}
				}
			}
		}
		if len(b.virt[level]) > 0 {
			b.follow(level, shift)
		}
		b.apply()
	}
}

// demand files the requirement that no leaf strictly contain q, which the
// demands of rank from's segment imply: for apply if q lies in this
// rank's segment and the leaf array does not satisfy it yet; with collect
// set, in virt and, unless from is q's owner itself, in the owner's send
// list if q lies in one other segment; nowhere if q spans a segment
// boundary, since no leaf can then contain it.
func (b *balancer) demand(qp uint64, level uint8, from int) {
	span, key := levelSpan(level), demandKey(qp, level)
	if b.lo <= qp && qp+span <= b.hi {
		if !b.repeat(key) && b.leaves[b.holding(qp)].level < level {
			b.dem = append(b.dem, key)
		}
		return
	}
	if !b.collect || b.repeat(key) {
		return
	}
	if b.owners = b.f.owners(qp, span, b.owners[:0]); len(b.owners) != 1 {
		return
	}
	b.virt[level] = append(b.virt[level], key)
	if o := b.owners[0]; o != from {
		b.send[o] = append(b.send[o], key)
	}
}

// follow draws the consequences of the level's demands outside this
// rank's segment. An octant q that no leaf strictly contains is tiled by
// leaves at its level or finer, and so are its seven siblings (a leaf
// containing one would contain q's parent), so the 2:1 condition on those
// leaves requires every neighbour of q's parent, in all 26 directions,
// not to lie strictly inside a leaf either. The balanced closure is the
// set of demands the leaves imply by this rule, which is why it is
// unique, and the rule never needs to know which leaves lie in between.
//
// A parent that spans a segment boundary is skipped: no leaf contains
// it, so the leaves tiling its children imply its consequences on their
// own ranks. Demands that stay inside the parent's own segment are not
// sent: that rank's sweep draws them from the demand that entered it. A
// repeated demand is not filed again, whatever its parent: the first one
// already reaches the owner, sent or drawn there. Sorted, the demands of
// one parent lie together, and the parent is followed once.
func (b *balancer) follow(level int, shift uint) {
	f := b.f
	v := b.virt[level]
	b.virt[level] = nil
	slices.Sort(v)
	last := ^uint64(0)
	for _, key := range v {
		pp := key &^ (8<<shift - 1)
		if pp == last {
			continue
		}
		last = pp
		if b.owners = f.owners(pp, levelSpan(uint8(level-1)), b.owners[:0]); len(b.owners) != 1 {
			continue
		}
		from := b.owners[0]
		for bit := range bitDir {
			if bit == 13 { // (0, 0, 0)
				continue
			}
			if qp, ok := f.neighborPos(pp, uint8(level-1), bit); ok {
				b.demand(qp, uint8(level-1), from)
			}
		}
	}
}

// axisLanes has the bits of the x coordinate in a curve position set;
// shifted by a, those of axis a.
const axisLanes = 0x0049249249249249

// neighborPos returns the curve position of the neighbour of the octant
// of the given level at curve position pos in direction bit, (d_x+1) + 3(d_y+1) +
// 9(d_z+1), and false at a physical boundary. Within the tree it steps
// each coordinate in place on the interleaved bits; a step that leaves the
// tree goes through Neighbor and the face transforms.
func (f *Forest) neighborPos(pos uint64, level uint8, bit int) (uint64, bool) {
	tree, p := pos-pos%curveEnd, pos%curveEnd
	shift := 3 * uint(morton.MaxLevel-level)
	for a, d := range bitDir[bit] {
		lanes, unit := uint64(axisLanes)<<a, uint64(1)<<(shift+uint(a))
		x := p & lanes
		switch d {
		case 0:
			continue
		case -1:
			if x < unit {
				return f.neighborPosAcross(pos, level, bit)
			}
			x = (x - unit) & lanes
		case 1:
			if x = ((p | ^lanes) + unit) & lanes; x < p&lanes {
				return f.neighborPosAcross(pos, level, bit)
			}
		}
		p = p&^lanes | x
	}
	return tree + p, true
}

// neighborPosAcross is neighborPos through the octant and its face
// transforms, for a neighbour in another tree.
func (f *Forest) neighborPosAcross(pos uint64, level uint8, bit int) (uint64, bool) {
	d := bitDir[bit]
	q, ok := f.Neighbor(curveOct{pos: pos, level: level}.octant(), [3]int{int(d[0]), int(d[1]), int(d[2])})
	return gpos(q), ok
}

// bitDir[bit] is the direction (d_x, d_y, d_z) with bit = (d_x+1) +
// 3(d_y+1) + 9(d_z+1).
var bitDir = func() (t [27][3]int8) {
	for bit := range t {
		t[bit] = [3]int8{int8(bit%3 - 1), int8(bit/3%3 - 1), int8(bit/9 - 1)}
	}
	return t
}()

// holding returns the index of the leaf that holds curve position pos,
// which lies in this rank's segment.
func (b *balancer) holding(pos uint64) int {
	ls := b.leaves
	lo, hi := 0, len(ls) // the leaf is ls[i] for the last i with ls[i].pos <= pos, lo <= i < hi
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); ls[m].pos <= pos {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// apply sorts the collected demands along the curve and merges them with
// the leaf array in one pass, replacing every leaf that strictly contains
// a demand by the minimal refinement that does not. It consumes the
// demands.
func (b *balancer) apply() {
	dem := b.dem
	b.dem = dem[:0]
	if len(dem) == 0 || len(b.leaves) == 0 {
		return
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
	if out != nil {
		b.leaves, b.spare = out, b.leaves
	}
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
