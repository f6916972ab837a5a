package sim

// Tests for the scalable runtime: tree-collective round counts, the
// split transport accounting, bit-identical floating-point reductions,
// the keyed mailbox under interleaved-tag stress, and the sparse
// exchange primitives.

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCollectiveRoundsLogP asserts the headline scalability property:
// one P-rank Allreduce costs exactly ceil(log2 P) tree rounds on every
// rank (the Bruck transport), never O(P).
func TestCollectiveRoundsLogP(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33, 64, 256} {
		p := p
		want := CeilLog2(p)
		Run(p, func(r *Rank) {
			pre := r.Stats()
			r.Allreduce(float64(r.ID()), OpSum)
			d := r.Stats().CollRounds - pre.CollRounds
			if d != want {
				t.Errorf("P=%d rank %d: Allreduce took %d rounds, want ceil(log2 P) = %d",
					p, r.ID(), d, want)
			}
			// Barrier and AllgatherInt64 ride the same transport.
			pre = r.Stats()
			r.Barrier()
			if d := r.Stats().CollRounds - pre.CollRounds; d != want {
				t.Errorf("P=%d rank %d: Barrier took %d rounds, want %d", p, r.ID(), d, want)
			}
			// Bcast is a binomial tree: at most ceil(log2 P) rounds per rank.
			pre = r.Stats()
			r.Bcast(0, 1, 8)
			if d := r.Stats().CollRounds - pre.CollRounds; d > want {
				t.Errorf("P=%d rank %d: Bcast took %d rounds, want <= %d", p, r.ID(), d, want)
			}
			// A short AllreduceVec is Allreduce's Bruck allgather.
			pre = r.Stats()
			r.AllreduceVec([]float64{1, 2})
			if d := r.Stats().CollRounds - pre.CollRounds; d != want {
				t.Errorf("P=%d rank %d: AllreduceVec took %d rounds, want %d",
					p, r.ID(), d, want)
			}
		})
	}
}

// TestStatsTransportSplit asserts the accounting invariant: every
// transport message is classified as exactly one of user point-to-point
// or collective tree transport.
func TestStatsTransportSplit(t *testing.T) {
	stats := Run(6, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, "hi", 2)
		}
		if r.ID() == 1 {
			r.Recv(0, 5)
		}
		r.Allreduce(1, OpSum)
		r.Barrier()
		r.AllgatherInt64(int64(r.ID()))
		r.AllreduceVec([]float64{1})
		dst, pay, nb := []int{(r.ID() + 1) % 6}, []any{r.ID()}, []int{8}
		r.AlltoallvSparse(dst, pay, nb)
	})
	for i, s := range stats {
		if s.MsgsSent != s.UserMsgs+s.CollMsgs {
			t.Errorf("rank %d: MsgsSent %d != UserMsgs %d + CollMsgs %d",
				i, s.MsgsSent, s.UserMsgs, s.CollMsgs)
		}
		if s.BytesSent != s.UserBytes+s.CollTransportBytes {
			t.Errorf("rank %d: BytesSent %d != UserBytes %d + CollTransportBytes %d",
				i, s.BytesSent, s.UserBytes, s.CollTransportBytes)
		}
		if s.CollMsgs == 0 || s.CollRounds == 0 {
			t.Errorf("rank %d: collectives left no tree-transport trace: %+v", i, s)
		}
	}
	// The sparse exchange payload is user traffic (1 Send + 1 sparse payload
	// on rank 0; 1 sparse payload elsewhere).
	if stats[0].UserMsgs != 2 {
		t.Errorf("rank 0 user msgs = %d, want 2", stats[0].UserMsgs)
	}
	if stats[2].UserMsgs != 1 {
		t.Errorf("rank 2 user msgs = %d, want 1", stats[2].UserMsgs)
	}
}

// reduceOnce runs one P-rank Allreduce/AllreduceVec over a fixed set of
// adversarial values and returns rank 0's results.
func reduceOnce(p int, vals []float64) (sum, vec0, vec1 float64) {
	Run(p, func(r *Rank) {
		s := r.Allreduce(vals[r.ID()], OpSum)
		v := r.AllreduceVec([]float64{vals[r.ID()], vals[(r.ID()+1)%p]})
		if r.ID() == p-1 {
			sum, vec0, vec1 = s, v[0], v[1]
		}
	})
	return
}

// TestAllreduceBitIdentical asserts that floating-point reductions are
// bit-identical across repeated runs regardless of goroutine scheduling:
// the combine always folds in rank order. The values are chosen so that
// any change of association changes the result.
func TestAllreduceBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const p = 13
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, p)
	for i := range vals {
		vals[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30)
	}
	s0, v00, v10 := reduceOnce(p, vals)
	for trial := 1; trial < 30; trial++ {
		runtime.GOMAXPROCS(1 + trial%4) // vary scheduling pressure
		s, v0, v1 := reduceOnce(p, vals)
		if math.Float64bits(s) != math.Float64bits(s0) ||
			math.Float64bits(v0) != math.Float64bits(v00) ||
			math.Float64bits(v1) != math.Float64bits(v10) {
			t.Fatalf("trial %d: reduction not bit-identical: sum %x vs %x, vec %x/%x vs %x/%x",
				trial, math.Float64bits(s), math.Float64bits(s0),
				math.Float64bits(v0), math.Float64bits(v1),
				math.Float64bits(v00), math.Float64bits(v10))
		}
	}
	// The fold order is rank order, so the result equals the serial left
	// fold — pin that too, for Allreduce and for each AllreduceVec entry.
	Run(p, func(r *Rank) {
		got := r.Allreduce(vals[r.ID()], OpSum)
		vec := r.AllreduceVec([]float64{vals[r.ID()]})
		want := vals[0]
		for i := 1; i < p; i++ {
			want = OpSum(want, vals[i])
		}
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(vec[0]) != math.Float64bits(want) {
			t.Errorf("rank %d: Allreduce %x, AllreduceVec %x != serial left fold %x", r.ID(),
				math.Float64bits(got), math.Float64bits(vec[0]), math.Float64bits(want))
		}
	})
}

// TestAllreduceVecCallerMayReuseInput: peers fold a rank's contribution
// after that rank has returned, so AllreduceVec must not hand them the
// caller's slice — overwriting it at once must change no peer's result.
func TestAllreduceVecCallerMayReuseInput(t *testing.T) {
	const p = 5
	Run(p, func(r *Rank) {
		buf := make([]float64, 3)
		bad := 0
		for k := 0; k < 50; k++ {
			for i := range buf {
				buf[i] = float64(k)
			}
			got := r.AllreduceVec(buf)
			for i := range buf {
				buf[i] = math.NaN()
			}
			for _, x := range got {
				if x != float64(p*k) {
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("rank %d: %d entries in 50 rounds differ from the sum", r.ID(), bad)
		}
	})
}

// TestFIFOFairnessKeyedMailbox floods one (source, tag) stream while
// other streams interleave and checks strict FIFO delivery within the
// stream — the keyed mailbox must not reorder same-key messages.
func TestFIFOFairnessKeyedMailbox(t *testing.T) {
	const n = 500
	Run(3, func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(2, 1, i, 8)
				if i%3 == 0 {
					r.Send(2, 2, -i, 8) // interleaved second stream, same source
				}
			}
		case 1:
			for i := 0; i < n; i++ {
				r.Send(2, 1, 1000000+i, 8)
			}
		case 2:
			// Drain the three streams in an order unrelated to arrival.
			for i := 0; i < n; i++ {
				if got := r.Recv(1, 1).(int); got != 1000000+i {
					t.Errorf("stream (1,1) msg %d: got %d", i, got)
					return
				}
			}
			for i := 0; i < n; i++ {
				if got := r.Recv(0, 1).(int); got != i {
					t.Errorf("stream (0,1) msg %d: got %d", i, got)
					return
				}
			}
			for i := 0; i < n; i += 3 {
				if got := r.Recv(0, 2).(int); got != -i {
					t.Errorf("stream (0,2) msg %d: got %d", i, got)
					return
				}
			}
		}
	})
}

// TestInterleavedTagStress is the race-detector stress test: many ranks
// exchange many messages over interleaved tags (both directions on every
// pair of ring neighbors) while collectives run concurrently on the same
// mailboxes.
func TestInterleavedTagStress(t *testing.T) {
	const p = 24
	const rounds = 40
	var total atomic.Int64
	Run(p, func(r *Rank) {
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		for i := 0; i < rounds; i++ {
			for tag := 0; tag < 4; tag++ {
				r.Send(next, tag, r.ID()*1000+i*10+tag, 8)
			}
			if i%8 == 3 {
				r.Barrier()
			}
			// Receive this round's tags out of order.
			for _, tag := range []int{2, 0, 3, 1} {
				got := r.Recv(prev, tag).(int)
				if got != prev*1000+i*10+tag {
					t.Errorf("rank %d round %d tag %d: got %d", r.ID(), i, tag, got)
				}
				total.Add(1)
			}
			if i%16 == 9 {
				sum := r.AllreduceInt64(1)
				if sum != p {
					t.Errorf("rank %d: allreduce %d", r.ID(), sum)
				}
			}
		}
	})
	if total.Load() != p*rounds*4 {
		t.Errorf("received %d messages, want %d", total.Load(), p*rounds*4)
	}
}

// TestAlltoallvSparseBasics exercises the dynamic-sparse exchange:
// self-delivery, empty participants, several payloads to one
// destination, and source-sorted results.
func TestAlltoallvSparseBasics(t *testing.T) {
	const p = 9
	Run(p, func(r *Rank) {
		var dests []int
		var pay []any
		var nb []int
		// Every even rank sends to rank 0 (twice) and to itself once; odd
		// ranks send nothing.
		if r.ID()%2 == 0 {
			dests = []int{0, r.ID(), 0}
			pay = []any{r.ID() * 10, r.ID() * 100, r.ID()*10 + 1}
			nb = []int{8, 8, 8}
		}
		froms, datas := r.AlltoallvSparse(dests, pay, nb)
		if r.ID() == 0 {
			// From each even rank: two messages in send order, plus the two
			// self entries, all sorted by source.
			wantFroms := []int{0, 0, 0, 2, 2, 4, 4, 6, 6, 8, 8}
			if len(froms) != len(wantFroms) {
				t.Fatalf("rank 0: got %d messages (%v), want %d", len(froms), froms, len(wantFroms))
			}
			for i, f := range wantFroms {
				if froms[i] != f {
					t.Fatalf("rank 0: froms = %v, want %v", froms, wantFroms)
				}
			}
			// Self entries keep send order: 0*10, 0*100, 0*10+1.
			if datas[0].(int) != 0 || datas[1].(int) != 0 || datas[2].(int) != 1 {
				t.Errorf("rank 0 self payloads: %v %v %v", datas[0], datas[1], datas[2])
			}
			if datas[3].(int) != 20 || datas[4].(int) != 21 {
				t.Errorf("rank 0 from 2: %v %v (want 20 21)", datas[3], datas[4])
			}
		} else if r.ID()%2 == 0 {
			if len(froms) != 1 || froms[0] != r.ID() || datas[0].(int) != r.ID()*100 {
				t.Errorf("rank %d: froms %v datas %v", r.ID(), froms, datas)
			}
		} else if len(froms) != 0 {
			t.Errorf("rank %d: unexpected messages from %v", r.ID(), froms)
		}
	})
}

// TestNeighborExchangeRing checks the plan-based exchange on a ring:
// exactly one send and one receive per rank, no handshake traffic.
func TestNeighborExchangeRing(t *testing.T) {
	const p = 7
	stats := Run(p, func(r *Rank) {
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		pre := r.Stats()
		in := make([]Payload, 1)
		r.NeighborExchange([]int{next}, []Payload{{Data: r.ID(), NBytes: 8}}, []int{prev}, in)
		if in[0].Data.(int) != prev {
			t.Errorf("rank %d: got %v from %d", r.ID(), in[0], prev)
		}
		d := r.Stats()
		if um := d.UserMsgs - pre.UserMsgs; um != 1 {
			t.Errorf("rank %d: %d user msgs for one neighbor exchange, want 1", r.ID(), um)
		}
		if cm := d.CollMsgs - pre.CollMsgs; cm != 0 {
			t.Errorf("rank %d: %d collective transport msgs, want 0 (no handshake)", r.ID(), cm)
		}
	})
	_ = stats
}

// TestAllgatherAny checks the generic Bruck allgather returns payloads in
// rank order on every rank for non-power-of-two sizes.
func TestAllgatherAny(t *testing.T) {
	for _, p := range []int{1, 2, 5, 12} {
		p := p
		Run(p, func(r *Rank) {
			in := r.Allgather([]int{r.ID(), r.ID() * r.ID()}, 16)
			if len(in) != p {
				t.Fatalf("P=%d rank %d: %d payloads", p, r.ID(), len(in))
			}
			for i, d := range in {
				v := d.([]int)
				if v[0] != i || v[1] != i*i {
					t.Errorf("P=%d rank %d: in[%d] = %v", p, r.ID(), i, v)
				}
			}
		})
	}
}

// TestBcastRoots checks the binomial broadcast from every root.
func TestBcastRoots(t *testing.T) {
	const p = 6
	Run(p, func(r *Rank) {
		for root := 0; root < p; root++ {
			var payload any
			if r.ID() == root {
				payload = root * 7
			}
			got := r.Bcast(root, payload, 8)
			if got.(int) != root*7 {
				t.Errorf("rank %d root %d: got %v", r.ID(), root, got)
			}
		}
	})
}

// BenchmarkAllreduceP64 tracks the latency of one scalar tree Allreduce
// at 64 simulated ranks.
func BenchmarkAllreduceP64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(64, func(r *Rank) {
			for k := 0; k < 10; k++ {
				r.Allreduce(float64(r.ID()+k), OpSum)
			}
		})
	}
}

// BenchmarkAlltoallvSparseP64 tracks one sparse neighbor exchange
// (6 neighbors per rank) at 64 simulated ranks.
func BenchmarkAlltoallvSparseP64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(64, func(r *Rank) {
			const p = 64
			var dests []int
			var pay []any
			var nb []int
			for d := 1; d <= 6; d++ {
				dests = append(dests, (r.ID()+d)%p)
				pay = append(pay, r.ID())
				nb = append(nb, 8)
			}
			r.AlltoallvSparse(dests, pay, nb)
		})
	}
}
