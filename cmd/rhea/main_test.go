package main

import "testing"

// TestLevelRange checks the per-cycle "levels lo..hi" line's range,
// including a mesh that holds level-0 leaves (the shell at -base 0).
func TestLevelRange(t *testing.T) {
	for _, c := range []struct {
		counts []int64
		lo, hi int
	}{
		{[]int64{3, 5, 0}, 0, 1},
		{[]int64{4, 0, 0}, 0, 0},
		{[]int64{0, 0, 7, 1, 0}, 2, 3},
		{[]int64{0, 9}, 1, 1},
		{[]int64{0, 0}, 0, 0},
		{nil, 0, 0},
	} {
		if lo, hi := levelRange(c.counts); lo != c.lo || hi != c.hi {
			t.Errorf("levelRange(%v) = %d..%d, want %d..%d", c.counts, lo, hi, c.lo, c.hi)
		}
	}
}
