package sim

import (
	"sync/atomic"
	"testing"
)

// Send and Recv are the plain point-to-point pair the runtime's tests
// drive the mailboxes with; the program itself moves user data through
// NeighborExchange and AlltoallvSparse.

// Send delivers data to rank `to` of this communicator with the given
// tag. nbytes is the modeled wire size of the payload, recorded in
// Stats. Send never blocks; it is the call a Faults.AtSend plan counts.
func (r *Rank) Send(to, tag int, data any, nbytes int) {
	if tag >= collTagBase {
		panic("sim: user tag collides with collective tag space")
	}
	r.enterOp(opSend, "Send")
	r.transport(to, message{tag: tag, data: data}, int64(nbytes), false)
}

// Recv blocks until a message from rank `from` of this communicator with
// the given tag arrives and returns its payload.
func (r *Rank) Recv(from, tag int) any { return r.recv(from, tag).data }

func TestSendRecv(t *testing.T) {
	Run(4, func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(next, 7, r.ID()*10, 8)
		got := r.Recv(prev, 7).(int)
		if got != prev*10 {
			t.Errorf("rank %d: got %d, want %d", r.ID(), got, prev*10)
		}
	})
}

func TestRecvMatchesSourceAndTag(t *testing.T) {
	Run(3, func(r *Rank) {
		switch r.ID() {
		case 0:
			// Send two messages with different tags; receiver asks for
			// tag 2 first, so matching must not be first-come-first-served.
			r.Send(2, 1, "tag1", 4)
			r.Send(2, 2, "tag2", 4)
		case 1:
			r.Send(2, 1, "from1", 5)
		case 2:
			if got := r.Recv(0, 2).(string); got != "tag2" {
				t.Errorf("tag match: got %q", got)
			}
			if got := r.Recv(1, 1).(string); got != "from1" {
				t.Errorf("source match: got %q", got)
			}
			if got := r.Recv(0, 1).(string); got != "tag1" {
				t.Errorf("remaining: got %q", got)
			}
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	Run(2, func(r *Rank) {
		const n = 100
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := r.Recv(0, 3).(int); got != i {
					t.Errorf("message %d arrived out of order: %d", i, got)
					return
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	var phase atomic.Int32
	Run(8, func(r *Rank) {
		phase.Add(1)
		r.Barrier()
		if got := phase.Load(); got != 8 {
			t.Errorf("rank %d passed barrier with phase %d", r.ID(), got)
		}
		r.Barrier()
	})
}

func TestAllgatherInt64(t *testing.T) {
	Run(5, func(r *Rank) {
		all := r.AllgatherInt64(int64(r.ID() * r.ID()))
		if len(all) != 5 {
			t.Errorf("len=%d", len(all))
			return
		}
		for i, v := range all {
			if v != int64(i*i) {
				t.Errorf("all[%d]=%d", i, v)
			}
		}
		// Mutating the local copy must not affect other ranks.
		all[0] = -1
	})
}

func TestAllreduce(t *testing.T) {
	Run(6, func(r *Rank) {
		sum := r.Allreduce(float64(r.ID()+1), OpSum)
		if sum != 21 {
			t.Errorf("sum=%v", sum)
		}
		max := r.Allreduce(float64(r.ID()), OpMax)
		if max != 5 {
			t.Errorf("max=%v", max)
		}
		min := r.Allreduce(float64(r.ID()), OpMin)
		if min != 0 {
			t.Errorf("min=%v", min)
		}
		n := r.AllreduceInt64(2)
		if n != 12 {
			t.Errorf("int sum=%d", n)
		}
	})
}

func TestAllreduceVec(t *testing.T) {
	Run(4, func(r *Rank) {
		v := []float64{float64(r.ID()), 1}
		got := r.AllreduceVec(v)
		if got[0] != 6 || got[1] != 4 {
			t.Errorf("rank %d: got %v", r.ID(), got)
		}
	})
}

func TestExScan(t *testing.T) {
	Run(5, func(r *Rank) {
		pre := r.ExScan(int64(r.ID() + 1))
		// rank i receives 1+2+...+i.
		want := int64(r.ID() * (r.ID() + 1) / 2)
		if pre != want {
			t.Errorf("rank %d: scan=%d want %d", r.ID(), pre, want)
		}
	})
}

func TestBcast(t *testing.T) {
	Run(4, func(r *Rank) {
		var payload any
		if r.ID() == 2 {
			payload = "hello"
		}
		got := r.Bcast(2, payload, 5)
		if got.(string) != "hello" {
			t.Errorf("rank %d: bcast got %v", r.ID(), got)
		}
	})
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	// Collectives must not consume user messages and vice versa.
	Run(3, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 9, "user", 4)
		}
		r.Barrier()
		sum := r.AllreduceInt64(1)
		if sum != 3 {
			t.Errorf("sum=%d", sum)
		}
		if r.ID() == 1 {
			if got := r.Recv(0, 9).(string); got != "user" {
				t.Errorf("user msg: %q", got)
			}
		}
	})
}

func TestStatsCounted(t *testing.T) {
	stats := Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []byte{1, 2, 3}, 3)
		} else {
			r.Recv(0, 1)
		}
		r.Allreduce(1, OpSum)
	})
	if stats[0].UserMsgs != 1 || stats[0].UserBytes != 3 {
		t.Errorf("rank0 user stats: %+v", stats[0])
	}
	if stats[1].UserMsgs != 0 {
		t.Errorf("rank1 user stats: %+v", stats[1])
	}
	for i, s := range stats {
		if s.CollectiveCalls != 1 {
			t.Errorf("rank %d collective calls = %d", i, s.CollectiveCalls)
		}
	}
}

func TestSingleRankWorld(t *testing.T) {
	Run(1, func(r *Rank) {
		if got := r.Allreduce(42, OpSum); got != 42 {
			t.Errorf("allreduce on 1 rank: %v", got)
		}
		r.Barrier()
		if got := r.ExScan(5); got != 0 {
			t.Errorf("exscan on 1 rank: %v", got)
		}
		all := r.AllgatherInt64(9)
		if len(all) != 1 || all[0] != 9 {
			t.Errorf("allgather on 1 rank: %v", all)
		}
	})
}

func TestManyRanks(t *testing.T) {
	// Ranks are goroutines; far more ranks than cores must work.
	const p = 128
	Run(p, func(r *Rank) {
		sum := r.AllreduceInt64(1)
		if sum != p {
			t.Errorf("sum=%d", sum)
		}
	})
}
