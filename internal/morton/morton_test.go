package morton

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randOctant(r *rand.Rand, maxLevel uint8) Octant {
	l := uint8(r.Intn(int(maxLevel) + 1))
	mask := ^(uint32(1)<<(MaxLevel-uint32(l)) - 1)
	return Octant{
		X:     r.Uint32() % RootLen & mask,
		Y:     r.Uint32() % RootLen & mask,
		Z:     r.Uint32() % RootLen & mask,
		Level: l,
	}
}

func TestRoot(t *testing.T) {
	r := Root()
	if r.Level != 0 || r.X != 0 || r.Y != 0 || r.Z != 0 {
		t.Fatalf("bad root %v", r)
	}
	if r.Len() != RootLen {
		t.Fatalf("root len = %d, want %d", r.Len(), RootLen)
	}
	if !r.Valid() {
		t.Fatal("root must be valid")
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 1000; iter++ {
		o := randOctant(r, MaxLevel-1)
		for i := 0; i < 8; i++ {
			c := o.Child(i)
			if !c.Valid() {
				t.Fatalf("invalid child %v of %v", c, o)
			}
			if c.Parent() != o {
				t.Fatalf("parent(child(%v,%d)) = %v", o, i, c.Parent())
			}
			if c.ChildID() != i {
				t.Fatalf("childID(%v) = %d, want %d", c, c.ChildID(), i)
			}
			if !o.IsAncestorOf(c) {
				t.Fatalf("%v should be ancestor of %v", o, c)
			}
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(x, y, z uint32, l uint8) bool {
		l = l % (MaxLevel + 1)
		mask := ^(uint32(1)<<(MaxLevel-uint32(l)) - 1)
		o := Octant{x % RootLen & mask, y % RootLen & mask, z % RootLen & mask, l}
		return FromKey(o.Key()) == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveInverse(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x, y, z = x%RootLen, y%RootLen, z%RootLen
		xx, yy, zz := deinterleave(interleave(x, y, z))
		return xx == x && yy == y && zz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// The Morton order must equal the pre-order traversal of the octree: the
// children of an octant, visited in z-order, are contiguous and follow
// their parent.
func TestPreOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		o := randOctant(r, MaxLevel-1)
		prev := o
		for i := 0; i < 8; i++ {
			c := o.Child(i)
			if !Less(prev, c) {
				t.Fatalf("order violation: %v !< %v", prev, c)
			}
			prev = c
		}
	}
}

func TestSortMatchesTraversal(t *testing.T) {
	// Build the full octree to level 2 via traversal; shuffled sort must
	// reproduce the traversal order.
	var traversal []Octant
	var walk func(o Octant)
	walk = func(o Octant) {
		traversal = append(traversal, o)
		if o.Level < 2 {
			for i := 0; i < 8; i++ {
				walk(o.Child(i))
			}
		}
	}
	walk(Root())

	shuffled := append([]Octant(nil), traversal...)
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sort.Slice(shuffled, func(i, j int) bool { return Less(shuffled[i], shuffled[j]) })
	for i := range traversal {
		if shuffled[i] != traversal[i] {
			t.Fatalf("position %d: got %v, want %v", i, shuffled[i], traversal[i])
		}
	}
}

func TestAncestor(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 1000; iter++ {
		o := randOctant(r, MaxLevel)
		if o.Level == 0 {
			continue
		}
		a := o.Ancestor(0)
		if a != Root() {
			t.Fatalf("ancestor at level 0 of %v = %v", o, a)
		}
		if o.Ancestor(o.Level) != o {
			t.Fatal("ancestor at own level must be identity")
		}
		p := o.Parent()
		if o.Ancestor(o.Level-1) != p {
			t.Fatal("ancestor at level-1 must equal parent")
		}
	}
}

func TestFirstLastDescendant(t *testing.T) {
	o := Octant{0, 0, 0, 1}
	fd := o.FirstDescendant(3)
	if fd != o.Child(0).Child(0) {
		t.Fatalf("first descendant %v", fd)
	}
	// The last level-3 descendant, its last child's last child, sits one
	// level-3 edge short of o's far corner.
	ld := o.Child(7).Child(7)
	want := o.Len() - uint32(1)<<(MaxLevel-3)
	if ld.X != want || ld.Y != want || ld.Z != want {
		t.Fatalf("last descendant %v, want anchor %d", ld, want)
	}
	if !o.IsAncestorOf(ld) || !Less(fd, ld) {
		t.Fatal("last descendant must be inside the octant and after the first")
	}
}

// The level-l octant containing a finest-level point is the point's
// ancestor at level l.
func TestContainingOctant(t *testing.T) {
	o := Octant{RootLen - 1, 0, 0, MaxLevel}.Ancestor(1)
	if o.X != RootLen/2 || o.Y != 0 || o.Level != 1 {
		t.Fatalf("containing octant %v", o)
	}
}

func TestValid(t *testing.T) {
	if (Octant{1, 0, 0, 0}).Valid() {
		t.Fatal("misaligned octant must be invalid")
	}
	if (Octant{0, 0, 0, MaxLevel + 1}).Valid() {
		t.Fatal("too-deep octant must be invalid")
	}
	if !(Octant{0, 0, 0, MaxLevel}).Valid() {
		t.Fatal("finest octant at origin must be valid")
	}
}

func BenchmarkKey(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	octs := make([]Octant, 1024)
	for i := range octs {
		octs[i] = randOctant(r, MaxLevel)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += octs[i%1024].Key()
	}
	_ = sink
}
