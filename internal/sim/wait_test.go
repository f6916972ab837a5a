package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// spin keeps the calling goroutine computing for d.
func spin(d time.Duration) {
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 32; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	spinSink = x
}

var spinSink float64

// waitCounts sums the poll and park counters of the given ranks'
// mailboxes after a run.
func waitCounts(w *World, ranks ...int) (polls, parks int) {
	for _, i := range ranks {
		polls += w.boxes[i].polls
		parks += w.boxes[i].parks
	}
	return
}

// pingPong is the imbalanced 2-rank pattern of a small solve: every round
// both ranks exchange one message, and rank 1 computes for work first, so
// rank 0 is always early and waits.
func pingPong(w *World, rounds int, work time.Duration) error {
	_, err := w.Run(func(r *Rank) {
		peer := []int{1 - r.ID()}
		out, in := []Payload{{F64: make([]float64, 8)}}, make([]Payload, 1)
		for i := 0; i < rounds; i++ {
			if r.ID() == 1 {
				spin(work)
			}
			r.NeighborExchange(peer, out, peer, in)
		}
	})
	return err
}

// TestWaitPollsWhileACoreIsFree: with a core to spare a receive that is
// early by a fraction of the budget polls and does not park, and on one
// core it never polls. The straggler works for a quarter of the budget so
// that the test does not depend on the constant. The budget is wall-clock
// time, so a host that takes the straggler's core away for longer than
// that — for a moment, or for as long as it runs both virtual CPUs on one
// physical core — still produces parks: the attempt is repeated, and if
// the host never lets up the test settles for "polled before it parked,
// and parked in fewer than half of the receives". Without polling every
// early receive parks and none polls.
func TestWaitPollsWhileACoreIsFree(t *testing.T) {
	const rounds, attempts = 400, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polls, parks := 0, rounds
	for try := 0; try < attempts && parks > rounds/100; try++ {
		w := NewWorld(2)
		if err := pingPong(w, rounds, pollBudget/4); err != nil {
			t.Fatal(err)
		}
		if po, pa := waitCounts(w, 0); pa < parks {
			polls, parks = po, pa
		}
	}
	t.Logf("2 ranks on 2 cores, rank 1 %v late each round: rank 0 polled %d times and parked %d times in %d receives",
		pollBudget/4, polls, parks, rounds)
	if polls < rounds/4 || parks > rounds/2 {
		t.Errorf("rank 0 polled %d times and parked %d times in %d early receives, want (almost) all and (almost) none", polls, parks, rounds)
	}

	runtime.GOMAXPROCS(1)
	w := NewWorld(2)
	if err := pingPong(w, rounds, pollBudget/4); err != nil {
		t.Fatal(err)
	}
	if polls, parks := waitCounts(w, 0, 1); polls != 0 {
		t.Errorf("on one core the ranks polled %d times (parked %d), want 0: a poller can only delay the rank it waits for", polls, parks)
	}
}

// TestOversubscribedWorldParks: 64 ranks on 2 cores must wait the old
// way. A rank may poll only while at most one rank is not waiting, which
// in a collective is the moment everyone waits on the last straggler, so
// polls stay a small fraction of the receives.
func TestOversubscribedWorldParks(t *testing.T) {
	const p, calls = 64, 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := NewWorld(p)
	if _, err := w.Run(func(r *Rank) {
		for i := 0; i < calls; i++ {
			if got := r.Allreduce(1, OpSum); got != p {
				t.Errorf("Allreduce = %v, want %d", got, p)
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	polls, parks := waitCounts(w, all...)
	receives := p * calls * CeilLog2(p)
	t.Logf("%d ranks on 2 cores, %d Allreduces: %d receives, %d polls, %d parks", p, calls, receives, polls, parks)
	if polls*10 > receives {
		t.Errorf("%d polls in %d receives: an oversubscribed world must park, not poll", polls, receives)
	}
	if parks == 0 {
		t.Error("no rank ever parked")
	}
}

// TestPoisonUnwindsPollersAndParkers aborts a world whose rank 0 waits
// for a message that never comes — while it still polls, and after it
// has parked — and wants the recorded failure back both times. Catching
// a rank inside its poll budget is a race the test may lose, so that case
// is retried until an abort lands before the first park.
func TestPoisonUnwindsPollersAndParkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer leakCheck(t)()
	abortWaiter := func(parkedFirst bool) (polls, parks int) {
		w := NewWorld(2)
		started := make(chan struct{})
		go func() {
			<-started
			for mb := w.boxes[0]; ; runtime.Gosched() {
				mb.mu.Lock()
				polling, parked := mb.polls > 0, mb.waiting
				mb.mu.Unlock()
				if parked || (polling && !parkedFirst) {
					break
				}
			}
			w.Abort("test abort")
		}()
		_, err := w.Run(func(r *Rank) {
			// Rank 1 returns at once, so rank 0 has a core to poll on.
			if r.ID() == 0 {
				close(started)
				r.Recv(1, 7)
				t.Error("Recv returned on a poisoned world")
			}
		})
		var rf ErrRankFailed
		if !errors.As(err, &rf) || rf.Rank != -1 || rf.Op != "test abort" {
			t.Fatalf("Run error = %v, want the abort", err)
		}
		return waitCounts(w, 0)
	}
	if polls, parks := abortWaiter(true); polls == 0 || parks != 1 {
		t.Errorf("aborted after parking: rank 0 polled %d times and parked %d times, want >0 and 1", polls, parks)
	}
	for try := 1; ; try++ {
		if _, parks := abortWaiter(false); parks == 0 {
			break
		}
		if try == 50 {
			t.Fatal("no abort in 50 landed while rank 0 was still polling")
		}
	}
}

// TestFaultIndexUnmovedByWaitPolicy: a kill at collective n fires at
// collective n whether the ranks around it poll or park.
func TestFaultIndexUnmovedByWaitPolicy(t *testing.T) {
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			w := NewWorld(2)
			w.SetFaults(&Faults{KillRank: 1, AtCollective: 120})
			_, err := w.Run(func(r *Rank) {
				peer := []int{1 - r.ID()}
				out, in := make([]Payload, 1), make([]Payload, 1)
				for i := 0; i < 100; i++ {
					r.NeighborExchange(peer, out, peer, in)
					r.Allreduce(1, OpSum)
				}
			})
			var rf ErrRankFailed
			if !errors.As(err, &rf) || rf.Rank != 1 || rf.Op != "Allreduce[120] (injected fault)" {
				t.Errorf("GOMAXPROCS %d: Run error = %v, want rank 1 killed at Allreduce[120]", procs, err)
			}
		}()
	}
}

// laneMsg is a numbered test message: who sent it, on which communicator,
// and its position in its (source, tag) stream.
type laneMsg struct {
	onSub     bool
	from, seq int
}

// TestLaneOrderRandomized drives one mailbox with 1000 seeded random
// interleavings: world rank 1 — rank 0 of the subset {1, 2, 3} — receives
// three tags from every other rank on the world communicator and the same
// tags from the subset's other members on the subset, in a random order
// of streams, while the senders interleave their tags at random. The
// lanes of ranks 2 and 3 then hold two communicators' messages under the
// same tags. Every stream must arrive FIFO and undisturbed by the others,
// and a following AlltoallvSparse must return its payloads sorted by
// source with each source's payloads in send order.
func TestLaneOrderRandomized(t *testing.T) {
	const p, recvr, perStream = 4, 1, 3
	tags := []int{5, 6, 7}
	type stream struct {
		onSub     bool
		from, tag int
	}
	for seed := int64(0); seed < 1000; seed++ {
		Run(p, func(r *Rank) {
			rng := rand.New(rand.NewSource(seed*p + int64(r.ID())))
			sub := r.Subset([]int{1, 2, 3})
			if r.ID() != recvr {
				var order []int // the tag of each send; a tag's own sends stay in order
				for _, tag := range tags {
					for s := 0; s < perStream; s++ {
						order = append(order, tag)
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				seq := map[int]int{}
				for _, tag := range order {
					r.Send(recvr, tag, laneMsg{false, r.ID(), seq[tag]}, 8)
					if sub.Member() {
						sub.Send(0, tag, laneMsg{true, sub.ID(), seq[tag]}, 8)
					}
					seq[tag]++
					if rng.Intn(4) == 0 {
						runtime.Gosched()
					}
				}
			} else {
				var order []stream
				for _, tag := range tags {
					for s := 0; s < perStream; s++ {
						order = append(order, stream{false, 0, tag}, stream{false, 2, tag}, stream{false, 3, tag},
							stream{true, 1, tag}, stream{true, 2, tag})
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				seen := map[stream]int{}
				for _, st := range order {
					c := r
					if st.onSub {
						c = sub
					}
					got := c.Recv(st.from, st.tag).(laneMsg)
					if want := (laneMsg{st.onSub, st.from, seen[st]}); got != want {
						t.Errorf("seed %d: stream %+v delivered %+v, want %+v", seed, st, got, want)
					}
					seen[st]++
				}
			}

			// Sparse exchange: a random number of numbered payloads to random
			// destinations (self included).
			var dests []int
			var pay []any
			sent := make([]int, p)
			for k, n := 0, rng.Intn(6); k < n; k++ {
				d := rng.Intn(p)
				dests = append(dests, d)
				pay = append(pay, laneMsg{from: r.ID(), seq: sent[d]})
				sent[d]++
			}
			froms, datas := r.AlltoallvSparse(dests, pay, nil)
			got := make([]int, p)
			for i, f := range froms {
				if i > 0 && f < froms[i-1] {
					t.Errorf("seed %d: rank %d: sparse sources %v not sorted", seed, r.ID(), froms)
				}
				if d := datas[i].(laneMsg); d != (laneMsg{from: f, seq: got[f]}) {
					t.Errorf("seed %d: rank %d: sparse payload %d from %d is %+v, want seq %d", seed, r.ID(), i, f, d, got[f])
				}
				got[f]++
			}
		})
	}
}

// BenchmarkExchangeImbalanced times what a receive costs when its message
// is not there yet — the case back-to-back probes cannot see: two ranks
// exchange 100 floats each way, and rank 1 computes for `work` before each
// exchange. Reported per exchange: the time beyond the work, and the
// allocations per message over both ranks.
func BenchmarkExchangeImbalanced(b *testing.B) {
	for _, work := range []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) {
			var elapsed time.Duration
			var mallocs uint64
			Run(2, func(r *Rank) {
				peer := []int{1 - r.ID()}
				out, in := []Payload{{F64: make([]float64, 100)}}, make([]Payload, 1)
				for i := 0; i < 64; i++ { // grow the lanes
					r.NeighborExchange(peer, out, peer, in)
				}
				var m0, m1 runtime.MemStats
				if r.ID() == 0 {
					runtime.ReadMemStats(&m0)
				}
				r.Barrier()
				t0 := time.Now()
				for i := 0; i < b.N; i++ {
					if r.ID() == 1 {
						spin(work)
					}
					r.NeighborExchange(peer, out, peer, in)
				}
				if r.ID() == 0 {
					elapsed = time.Since(t0)
					runtime.ReadMemStats(&m1)
					mallocs = m1.Mallocs - m0.Mallocs
				}
			})
			b.ReportMetric(float64(elapsed-time.Duration(b.N)*work)/1e3/float64(b.N), "us-beyond-work/exchange")
			b.ReportMetric(float64(mallocs)/float64(2*b.N), "allocs/msg")
		})
	}
}

// TestLaneStaysBoundedUnderBacklog: a sender that always stays ahead never
// lets its lane run empty; the lane must slide its backlog down instead of
// growing with the number of messages ever sent.
func TestLaneStaysBoundedUnderBacklog(t *testing.T) {
	var q lane
	for i := 0; i < 3; i++ {
		q.push(message{tag: i})
	}
	for i := 3; i < 100000; i++ {
		q.push(message{tag: i})
		if m, ok := q.remove(anySource, i-3); !ok || m.tag != i-3 {
			t.Fatalf("message %d: got %+v, %v", i-3, m, ok)
		}
	}
	if cap(q.msgs) > 16 {
		t.Errorf("lane with a backlog of 3 grew to capacity %d", cap(q.msgs))
	}
}
