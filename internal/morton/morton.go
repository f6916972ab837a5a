// Package morton implements the space-filling-curve arithmetic that
// underlies the ALPS/p4est-style linear octree: octant keys, Morton
// (z-order) encoding, parent/child navigation, and the total ordering
// used to partition octrees across ranks.
//
// An octant is identified by its anchor corner (the corner closest to
// the origin) expressed in integer units of the finest admissible level,
// plus its refinement level. The root octant has level 0 and spans
// [0, 2^MaxLevel)^3. An octant at level l has edge length
// 2^(MaxLevel-l) in these units.
package morton

import "fmt"

// MaxLevel is the deepest admissible refinement level. With 3 coordinate
// axes at MaxLevel bits each, a full Morton index fits in 3*19 = 57 bits,
// leaving room for the level in a uint64 key.
const MaxLevel = 19

// RootLen is the edge length of the root octant in units of the finest level.
const RootLen = 1 << MaxLevel

// Octant identifies a cube in the octree by anchor coordinates and level.
// The zero value is the root octant.
type Octant struct {
	X, Y, Z uint32
	Level   uint8
}

// Root returns the level-0 octant spanning the whole unit cube.
func Root() Octant { return Octant{} }

// Len returns the octant's edge length in units of the finest level.
func (o Octant) Len() uint32 { return 1 << (MaxLevel - uint32(o.Level)) }

// Valid reports whether the octant's anchor is aligned to its level and
// lies inside the root domain.
func (o Octant) Valid() bool {
	if o.Level > MaxLevel {
		return false
	}
	mask := o.Len() - 1
	if o.X&mask != 0 || o.Y&mask != 0 || o.Z&mask != 0 {
		return false
	}
	return o.X < RootLen && o.Y < RootLen && o.Z < RootLen
}

// Parent returns the octant's parent. Calling Parent on the root returns
// the root itself.
func (o Octant) Parent() Octant {
	if o.Level == 0 {
		return o
	}
	mask := ^(o.Len()<<1 - 1)
	return Octant{o.X & mask, o.Y & mask, o.Z & mask, o.Level - 1}
}

// ChildID returns the octant's index (0..7) among its siblings, following
// z-order: bit 0 = x, bit 1 = y, bit 2 = z.
func (o Octant) ChildID() int {
	if o.Level == 0 {
		return 0
	}
	h := o.Len()
	id := 0
	if o.X&h != 0 {
		id |= 1
	}
	if o.Y&h != 0 {
		id |= 2
	}
	if o.Z&h != 0 {
		id |= 4
	}
	return id
}

// Child returns the octant's i-th child (0..7) in z-order.
func (o Octant) Child(i int) Octant {
	h := o.Len() >> 1
	c := Octant{o.X, o.Y, o.Z, o.Level + 1}
	if i&1 != 0 {
		c.X += h
	}
	if i&2 != 0 {
		c.Y += h
	}
	if i&4 != 0 {
		c.Z += h
	}
	return c
}

// Ancestor returns the octant's ancestor at the given (shallower) level.
func (o Octant) Ancestor(level uint8) Octant {
	if level >= o.Level {
		return o
	}
	mask := ^(uint32(1)<<(MaxLevel-uint32(level)) - 1)
	return Octant{o.X & mask, o.Y & mask, o.Z & mask, level}
}

// IsAncestorOf reports whether o is a strict ancestor of d.
func (o Octant) IsAncestorOf(d Octant) bool {
	if o.Level >= d.Level {
		return false
	}
	return d.Ancestor(o.Level) == Octant{o.X, o.Y, o.Z, o.Level}
}

// ContainsOrEqual reports whether d is o or a descendant of o.
func (o Octant) ContainsOrEqual(d Octant) bool {
	return o == d || o.IsAncestorOf(d)
}

// FirstDescendant returns the first (in Morton order) descendant of o at
// the given deeper level; it shares o's anchor.
func (o Octant) FirstDescendant(level uint8) Octant {
	if level <= o.Level {
		return o
	}
	return Octant{o.X, o.Y, o.Z, level}
}

// Key encodes the octant as a single uint64 that sorts in curve order
// (Less): the Morton interleave of the anchor bits (57 bits) shifted
// left over 5 level bits. For mixed levels, an
// ancestor and its first descendant share the interleave, and the level
// field breaks the tie so the ancestor sorts first (pre-order traversal).
func (o Octant) Key() uint64 {
	return interleave(o.X, o.Y, o.Z)<<5 | uint64(o.Level)
}

// FromKey decodes a key produced by Key.
func FromKey(k uint64) Octant {
	level := uint8(k & 31)
	x, y, z := deinterleave(k >> 5)
	return Octant{x, y, z, level}
}

// interleave produces the 57-bit Morton interleave of three 19-bit values,
// with x occupying bit 0, y bit 1, z bit 2 of each triple.
func interleave(x, y, z uint32) uint64 {
	return spread(x) | spread(y)<<1 | spread(z)<<2
}

func deinterleave(m uint64) (x, y, z uint32) {
	return compact(m), compact(m >> 1), compact(m >> 2)
}

// spread distributes the low 19 bits of v so that bit i moves to bit 3i.
func spread(v uint32) uint64 {
	x := uint64(v) & 0x7ffff // 19 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact is the inverse of spread.
func compact(m uint64) uint32 {
	x := m & 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x7ffff
	return uint32(x)
}

// Less reports whether a precedes b along the space-filling curve.
func Less(a, b Octant) bool { return a.Key() < b.Key() }

// String implements fmt.Stringer.
func (o Octant) String() string {
	return fmt.Sprintf("oct(l=%d %d,%d,%d)", o.Level, o.X, o.Y, o.Z)
}
