package sim

// Communicator-subset tests: collectives on a Subset must involve only
// its members (tree depth ceil(log2 P_active)), non-members must be able
// to proceed independently, and the per-communicator tag namespaces must
// keep concurrent collectives on different communicators from
// interfering.

import (
	"math"
	"testing"
)

// TestSubsetCollectiveSemantics: allreduce/allgather/exscan/bcast/barrier
// over a subset see only member contributions, with subset-relative rank
// indices.
func TestSubsetCollectiveSemantics(t *testing.T) {
	const p = 9
	members := []int{1, 3, 4, 7, 8}
	Run(p, func(r *Rank) {
		sub := r.Subset(members)
		inSub := -1
		for i, m := range members {
			if m == r.ID() {
				inSub = i
			}
		}
		if sub.ID() != inSub || sub.Member() != (inSub >= 0) {
			t.Errorf("rank %d: subset ID=%d Member=%v, want ID=%d", r.ID(), sub.ID(), sub.Member(), inSub)
		}
		if sub.Size() != len(members) {
			t.Errorf("subset size %d != %d", sub.Size(), len(members))
		}
		if !sub.Member() {
			return // non-members drop out of subset collectives entirely
		}
		if got := sub.AllreduceInt64(int64(r.ID())); got != 1+3+4+7+8 {
			t.Errorf("subset allreduce = %d, want %d", got, 1+3+4+7+8)
		}
		all := sub.AllgatherInt64(int64(r.ID()))
		for i, m := range members {
			if all[i] != int64(m) {
				t.Errorf("subset allgather[%d] = %d, want %d", i, all[i], m)
			}
		}
		// The prefix a partition derives from the gathered counts.
		var wantScan, scan int64
		for _, m := range members[:sub.ID()] {
			wantScan += int64(m)
		}
		for _, v := range all[:sub.ID()] {
			scan += v
		}
		if scan != wantScan {
			t.Errorf("subset prefix from the allgather = %d, want %d", scan, wantScan)
		}
		if got := sub.Bcast(2, r.ID(), 8).(int); got != members[2] {
			t.Errorf("subset bcast = %d, want %d", got, members[2])
		}
		sub.Barrier()

		// A subset of a subset: member ranks are subset-relative.
		sub2 := sub.Subset([]int{0, 2, 4}) // world ranks 1, 4, 8
		if sub2.Member() != (r.ID() == 1 || r.ID() == 4 || r.ID() == 8) {
			t.Errorf("rank %d: nested subset membership wrong", r.ID())
		}
		if sub2.Member() {
			if got := sub2.AllreduceInt64(int64(r.ID())); got != 1+4+8 {
				t.Errorf("nested subset allreduce = %d, want %d", got, 1+4+8)
			}
		}
	})
}

// TestSubsetCollectiveRounds: collectives on a subset of P_active ranks
// spend exactly ceil(log2 P_active) rounds per member — idle ranks are
// excluded from the trees — and cost non-members nothing.
func TestSubsetCollectiveRounds(t *testing.T) {
	const p = 16
	members := []int{0, 2, 5, 9, 14} // P_active = 5
	stats := Run(p, func(r *Rank) {
		sub := r.Subset(members)
		if !sub.Member() {
			return
		}
		sub.Allreduce(1, OpSum)
		sub.Barrier()
	})
	want := 2 * CeilLog2(len(members)) // allreduce + barrier
	mem := map[int]bool{}
	for _, m := range members {
		mem[m] = true
	}
	for id, s := range stats {
		if mem[id] {
			if s.CollRounds != want {
				t.Errorf("member rank %d: %d collective rounds, want %d", id, s.CollRounds, want)
			}
			if s.CollectiveCalls != 2 {
				t.Errorf("member rank %d: %d collective calls, want 2", id, s.CollectiveCalls)
			}
		} else if s.CollRounds != 0 || s.MsgsSent != 0 || s.CollectiveCalls != 0 {
			t.Errorf("non-member rank %d spent communication: %+v", id, s)
		}
	}
}

// TestSubsetTagIsolation: disjoint subsets run different numbers of
// collectives concurrently, then the parent communicator resumes its own
// collectives. With a shared tag sequence the diverged counts would
// cross-match messages; per-communicator namespaces keep the streams
// apart.
func TestSubsetTagIsolation(t *testing.T) {
	const p = 8
	Run(p, func(r *Rank) {
		low := r.Subset([]int{0, 1, 2, 3})
		high := r.Subset([]int{4, 5, 6, 7})
		switch {
		case low.Member():
			for i := 0; i < 7; i++ { // 7 collectives on the low half
				if got := low.AllreduceInt64(1); got != 4 {
					t.Errorf("low subset allreduce = %d, want 4", got)
				}
			}
		case high.Member():
			for i := 0; i < 2; i++ { // 2 collectives on the high half
				if got := high.AllreduceInt64(int64(r.ID())); got != 4+5+6+7 {
					t.Errorf("high subset allreduce = %d, want 22", got)
				}
			}
		}
		// Parent collectives still line up across all ranks.
		if got := r.AllreduceInt64(1); got != p {
			t.Errorf("world allreduce after subsets = %d, want %d", got, p)
		}
		// Subset collectives continue to work after parent traffic.
		if low.Member() {
			if got := low.AllreduceInt64(2); got != 8 {
				t.Errorf("low subset allreduce after world = %d, want 8", got)
			}
		}
	})
}

// TestSubsetNonMemberPanics: communicating through a non-member handle is
// a programming error and must fail loudly.
func TestSubsetNonMemberPanics(t *testing.T) {
	Run(2, func(r *Rank) {
		sub := r.Subset([]int{0})
		if r.ID() != 1 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Errorf("collective on non-member handle did not panic")
			}
		}()
		sub.Barrier()
	})
}

// TestAllreduceVecHalvingMatchesSerialFold: a long, odd-length vector
// (the size a recursive-halving algorithm would take) on a power-of-two
// communicator must come back as the bit-exact serial left fold over
// ranks 0..P-1 on every rank, within ceil(log2 P) rounds.
func TestAllreduceVecHalvingMatchesSerialFold(t *testing.T) {
	const p = 8
	n := 1024 + 137
	mk := func(id int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = math.Sin(float64(id*n+j)) * math.Exp(float64(j%17)-8)
		}
		return v
	}
	want := make([]float64, n)
	for id := 0; id < p; id++ {
		v := mk(id)
		for j := range want {
			want[j] += v[j]
		}
	}
	stats := Run(p, func(r *Rank) {
		got := r.AllreduceVec(mk(r.ID()))
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("rank %d: allreducevec[%d] = %v, want serial fold %v", r.ID(), j, got[j], want[j])
				return
			}
		}
	})
	bound := CeilLog2(p)
	for id, s := range stats {
		if s.CollRounds > bound {
			t.Errorf("rank %d: %d rounds > ceil(log2 %d) = %d", id, s.CollRounds, p, bound)
		}
	}
}

// TestAllreduceVecHalvingOnSubset: a long vector's allreduce composes
// with subsets — a power-of-two subset of a non-power-of-two world.
func TestAllreduceVecHalvingOnSubset(t *testing.T) {
	const p = 6
	members := []int{0, 2, 3, 5}
	n := 1024 + 37
	Run(p, func(r *Rank) {
		sub := r.Subset(members)
		if !sub.Member() {
			return
		}
		v := make([]float64, n)
		for j := range v {
			v[j] = float64(r.ID()+1) / float64(j+1)
		}
		got := sub.AllreduceVec(v)
		for j := 0; j < n; j += 97 {
			var want float64
			for _, m := range members {
				want += float64(m+1) / float64(j+1)
			}
			if math.Abs(got[j]-want) > 1e-12*math.Abs(want) {
				t.Errorf("subset allreducevec[%d] = %v, want %v", j, got[j], want)
			}
		}
	})
}
