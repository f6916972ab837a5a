// Package sim provides a simulated message-passing runtime: the stand-in
// for MPI on the Ranger supercomputer used in the paper. Ranks are
// goroutines within one process and the network is per-rank mailboxes, so
// every distributed algorithm in this repository actually executes its
// true communication pattern (real data moves between ranks) while the
// per-rank message and byte counts are recorded for the performance model.
//
// The programming model is SPMD: World.Run launches P rank functions that
// communicate through collectives (Barrier, Allgather, Allreduce, ExScan,
// Bcast, AlltoallvSparse, NeighborExchange) that every rank must call in
// the same order; messages are matched by (source, tag).
//
// Communicator subsets: Subset derives a communicator spanning a subset
// of an existing communicator's ranks (the analogue of MPI_Comm_create).
// Collectives on the subset involve only its members — tree depths are
// ceil(log2 P_active), and non-members spend nothing — which is how the
// multigrid agglomerates coarse levels onto shrinking rank groups without
// idle ranks participating in coarse-level collectives. Every
// communicator owns a disjoint tag namespace derived deterministically
// from its creation path, so collectives on different communicators need
// no ordering relative to each other; SPMD ordering is required only
// among one communicator's members.
//
// Collectives run over point-to-point tree transport with O(log2 P)
// rounds per rank: Allreduce/Allgather/ExScan/Barrier use a Bruck
// concatenation (exactly ceil(log2 P) rounds on every rank, any P), Bcast
// and the vector reductions use binomial trees. Every floating-point
// reduction folds the per-rank contributions locally in rank order, so
// results are bit-identical across repeated runs and independent of
// goroutine scheduling or message arrival order — and identical to a
// serial left-to-right fold over ranks 0..P-1.
//
// Irregular exchanges use AlltoallvSparse (a dynamic-sparse handshake —
// one int64-vector tree reduction of send counts — followed by payload
// transport only between actual communication partners) or, when both
// sides of the pattern are known from a persisted plan, NeighborExchange
// (no handshake at all, float vectors carried typed, results stored in
// the caller's table: no allocation per message). Per-rank message
// counts for these are O(communication partners), never O(P).
//
// A rank's mailbox keeps one FIFO lane per sender; a receive scans its
// sender's lane for the wanted (rank, tag) — no map, no per-stream state.
// A receive that finds nothing polls the mailbox's sequence number for
// up to pollBudget before it parks on the condition variable, provided
// the world has a core nobody computing needs (World.coreToSpare): the
// park and the futex wake-up it forces on the sender cost 10 us and more
// where a poll costs 0.3 us. How a rank waits changes no result.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stats records the communication activity of one rank. Transport is
// split cleanly: user point-to-point traffic (Send plus the payloads of
// sparse/neighbor exchanges) versus the tree-transport messages that
// implement collectives.
type Stats struct {
	MsgsSent  int   // all point-to-point transport messages (user + collective tree)
	BytesSent int64 // bytes in all transport messages

	UserMsgs  int   // user point-to-point messages (Send, sparse/neighbor payloads)
	UserBytes int64 // bytes in user point-to-point messages

	CollMsgs           int   // tree-transport messages sent inside collectives
	CollTransportBytes int64 // bytes in collective tree-transport messages

	CollectiveCalls int   // number of collective operations participated in
	CollectiveBytes int64 // bytes this rank contributed to collectives
	CollRounds      int   // communication rounds spent inside collectives
}

type message struct {
	from, tag int       // sender's rank in the message's communicator; stream tag
	f64       []float64 // a float vector travels typed: no boxing on either side
	data      any       // any other payload
	wild      bool      // consumed by takeAny (AlltoallvSparse payloads), not by take
}

// anySource makes lane.remove match on the tag alone.
const anySource = -1

// lane is a FIFO of pending messages; head indexing keeps pop O(1)
// without shifting the slice, and the slice is reused for the life of
// the mailbox.
type lane struct {
	src  int // sender's world rank
	msgs []message
	head int
}

// push appends m. A lane lives as long as its world and need never run
// empty, so when it is full and at least half of it is consumed prefix
// the backlog slides down instead of the slice growing.
func (q *lane) push(m message) {
	if len(q.msgs) == cap(q.msgs) && q.head > 0 && q.head >= len(q.msgs)/2 {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
}

// remove takes out the oldest message with the given tag from the given
// communicator rank (any rank for anySource) — normally the head. The
// messages it skips keep their order, so every (source, tag) stream stays
// FIFO and the streams stay independent of each other.
func (q *lane) remove(from, tag int) (message, bool) {
	for i := q.head; i < len(q.msgs); i++ {
		m := q.msgs[i]
		if m.tag != tag || (from != anySource && m.from != from) {
			continue
		}
		copy(q.msgs[q.head+1:i+1], q.msgs[q.head:i])
		q.msgs[q.head] = message{}
		q.head++
		if q.head == len(q.msgs) {
			q.msgs = q.msgs[:0]
			q.head = 0
		}
		return m, true
	}
	return message{}, false
}

// pollBudget is how long a receive polls for its message before it
// parks. Parking is what it avoids: a consumer that has slept in
// cond.Wait for more than ~50 us has had its thread parked on a futex,
// and the sender's Signal then costs 9-12 us from signal to running on
// the 2-vCPU reference host (BenchmarkExchangeImbalanced: 6-9 us beyond
// the work when the sender is 20 us late, 15-18 us when it is 200 us
// late), against 0.3 us for a poller that sees the sequence number move.
// The budget has to cover the usual skew between two ranks doing unequal
// element work between messages, and no more: 81% of the waits of the
// benchmark's shell-cycle and 94% of serve-jobs' end within 20 us, 88%
// of shell-cycle's within 32 us, 96% / 99% within 100 us. What bounds it
// from above is a host whose cores are wanted by someone outside the
// process, which coreToSpare cannot see: there a poller spends its own
// world's share of the machine. With one busy-looping process beside the
// benchmark on 2 cores, shell-cycle against the parking-only receive read
// -3% at 35 us, -1% at 50, +4% at 70, +10% at 100 (serve-jobs -2% / +2% /
// +10% at 35 / 50 / 100), while on a quiet host 35 us keeps most of the
// gain: -34% at 35, -35% at 50, -41% at 100 (-20% at 20).
const pollBudget = 35 * time.Microsecond

// pollBurst is the number of sequence loads between two yields: about a
// microsecond. Yielding much more often is worse than not yielding: at
// 64 loads the scheduler traffic kept moving the two ranks of a small
// world onto one P, and the imbalanced exchange cost 17-40 us per
// message instead of 1-2.
const pollBurst = 1024

// mailbox holds the messages sent to one rank until its single consumer
// (the owning rank's goroutine) takes them: one lane per sender, created
// when that sender first writes, plus one arrival-ordered lane for the
// tag-wildcard payloads of AlltoallvSparse. A targeted receive looks only
// at its sender's lane, so matching costs nothing in the number of
// senders, hashes nothing and allocates nothing once the lanes have
// grown to the deepest backlog.
type mailbox struct {
	// What a put and the take it feeds both touch sits together at the
	// front: it crosses between their cores with every message.
	mu    sync.Mutex
	seq   atomic.Uint64 // bumped under mu by every put and by poison; polled without it
	lanes []lane
	fail  *ErrRankFailed // set when the world aborts; every take unwinds

	waiting  bool // consumer is parked in cond.Wait and nobody has woken it yet
	wantAny  bool
	wantFrom int
	wantTag  int

	wild  lane
	cond  sync.Cond
	world *World

	polls, parks int // waits that polled / parked, for the tests
}

func (mb *mailbox) put(src int, m message) {
	mb.mu.Lock()
	if m.wild {
		mb.wild.push(m)
	} else {
		mb.lane(src).push(m)
	}
	mb.seq.Add(1)
	// Targeted wakeup: signal only a parked consumer waiting for this stream.
	wake := mb.waiting && m.tag == mb.wantTag && (mb.wantAny || m.from == mb.wantFrom)
	if wake {
		mb.unpark()
	}
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// unpark is the waker's half of a park, under mu: from here on the
// consumer has something to do, so it stops counting as a waiter now and
// not when the scheduler gets round to running it.
func (mb *mailbox) unpark() {
	mb.waiting = false
	mb.world.waiters.Add(-1)
}

// lane returns the lane of the sender with world rank src. A rank hears
// from its neighbours and its tree partners, so the list is short and a
// scan beats anything keyed.
func (mb *mailbox) lane(src int) *lane {
	for i := range mb.lanes {
		if mb.lanes[i].src == src {
			return &mb.lanes[i]
		}
	}
	mb.lanes = append(mb.lanes, lane{src: src})
	return &mb.lanes[len(mb.lanes)-1]
}

// poison marks the mailbox dead and wakes its consumer regardless of
// what stream it waits on: the next (or current) take unwinds with the
// recorded failure instead of blocking on a dead world.
func (mb *mailbox) poison(e *ErrRankFailed) {
	mb.mu.Lock()
	mb.fail = e
	mb.seq.Add(1)
	if mb.waiting {
		mb.unpark()
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message from communicator rank `from` (world rank
// src) with the given tag is available and removes it (FIFO among
// matching messages).
func (mb *mailbox) take(src, from, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var polled time.Duration
	for {
		if mb.fail != nil {
			panic(abortUnwind{err: *mb.fail})
		}
		if m, ok := mb.lane(src).remove(from, tag); ok {
			return m
		}
		mb.wantAny, mb.wantFrom, mb.wantTag = false, from, tag
		mb.wait(&polled)
	}
}

// takeAny blocks until a wildcard message with the given tag is
// available from any source and removes it (arrival order, so FIFO within
// each source stream).
func (mb *mailbox) takeAny(tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var polled time.Duration
	for {
		if mb.fail != nil {
			panic(abortUnwind{err: *mb.fail})
		}
		if m, ok := mb.wild.remove(anySource, tag); ok {
			return m
		}
		mb.wantAny, mb.wantTag = true, tag
		mb.wait(&polled)
	}
}

// wait is called with mu held by a take that found nothing, and returns
// with mu held once the mailbox may have changed. While the take's poll
// budget lasts and the world has a core to spare it polls the sequence
// number with mu released; otherwise it parks. A put or poison between
// the unlock and the re-lock is seen by the caller's re-check of the
// queue, and waiting is only ever set under the same hold of mu that
// found the queue empty, so no wake-up can be lost.
func (mb *mailbox) wait(polled *time.Duration) {
	w := mb.world
	w.waiters.Add(1)
	if *polled >= pollBudget || !w.coreToSpare() {
		mb.waiting = true // whoever clears it takes this rank off waiters
		mb.parks++
		mb.cond.Wait()
		return
	}
	mb.polls++
	seq := mb.seq.Load()
	mb.mu.Unlock()
	start := time.Now()
	for spin := 1; mb.seq.Load() == seq; spin++ {
		if spin%pollBurst != 0 {
			continue
		}
		if *polled+time.Since(start) >= pollBudget || !w.coreToSpare() {
			break
		}
		// Let whatever else is runnable on this P go first: a rank of
		// another world, an HTTP handler, a GC worker.
		runtime.Gosched()
	}
	*polled += time.Since(start)
	w.waiters.Add(-1)
	mb.mu.Lock()
}

// World is the full set of ranks of one simulated run: the mailboxes and
// statistics shared by every communicator derived from it.
type World struct {
	size  int
	boxes []*mailbox
	stats []Stats // entry i is written only by rank i's goroutine

	// Wait policy (see mailbox.wait): procs is GOMAXPROCS when the world
	// was made, waiters the number of ranks currently inside a wait.
	procs   int
	waiters atomic.Int32

	// Fault tolerance (see fault.go): the first failure poisons every
	// mailbox, closes abortCh and becomes Run's error.
	failed  atomic.Pointer[ErrRankFailed]
	abortCh chan struct{}
	faults  *Faults
	ops     []opCounts

	// Collective tag namespace registry: every communicator derived via
	// Subset gets a world-unique tagBase, allocated on first request and
	// keyed by (parent tagBase, per-parent subset index) so all members
	// of one subset — who present the same key by the SPMD collective
	// ordering — resolve to the same namespace without any messages.
	tagm    sync.Mutex
	tagReg  map[[2]int64]int64
	tagNext int64
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("sim: world size %d < 1", size))
	}
	w := &World{size: size, procs: runtime.GOMAXPROCS(0)}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		mb := &mailbox{world: w}
		mb.cond.L = &mb.mu
		w.boxes[i] = mb
	}
	w.stats = make([]Stats, size)
	w.tagReg = make(map[[2]int64]int64)
	w.tagNext = 2 // 1 is the world communicator's namespace
	w.abortCh = make(chan struct{})
	w.ops = make([]opCounts, size)
	return w
}

// coreToSpare reports whether a rank that has nothing to do may poll: only
// while every rank that is not waiting can still have a core to itself —
// the rule MPI libraries apply when they detect oversubscription. A
// 2-rank world on 2 cores always polls; a 64-rank world on 2 cores parks
// at once, except where nearly everyone waits on a straggler; on one core
// a poller could only delay the rank it waits for, so it never polls.
func (w *World) coreToSpare() bool {
	return w.procs > 1 && w.size-int(w.waiters.Load()) < w.procs
}

// subsetTag returns the collective tag namespace for the subset derived
// as the idx-th Subset call on the communicator with namespace parent.
func (w *World) subsetTag(parent, idx int64) int64 {
	w.tagm.Lock()
	defer w.tagm.Unlock()
	key := [2]int64{parent, idx}
	if t, ok := w.tagReg[key]; ok {
		return t
	}
	t := w.tagNext
	w.tagNext++
	if t >= 1<<30 {
		panic("sim: communicator tag namespaces exhausted")
	}
	w.tagReg[key] = t
	return t
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Run executes fn on every rank concurrently and returns when every
// rank goroutine has exited — including after a failure, so no
// goroutine ever leaks past Run. It returns the per-rank communication
// statistics, plus the failure (an ErrRankFailed) if any rank died —
// by injected fault, explicit Kill, escaping panic — or the world was
// aborted; surviving ranks unwind at their next communication
// operation instead of deadlocking on the dead rank.
func (w *World) Run(fn func(*Rank)) ([]Stats, error) {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for i := 0; i < w.size; i++ {
		go func(id int) {
			defer wg.Done()
			w.runRank(id, fn)
		}(i)
	}
	wg.Wait()
	out := make([]Stats, w.size)
	copy(out, w.stats)
	if f := w.failed.Load(); f != nil {
		return out, *f
	}
	return out, nil
}

// Run is shorthand for NewWorld(size).Run(fn) for callers that treat a
// rank failure as fatal: it panics with the run's ErrRankFailed (which
// carries the original panic message and stack for a genuine bug), so
// a failure in a fire-and-forget run is loud instead of silently
// swallowed. Fault-tolerant callers use World.Run and handle the error.
func Run(size int, fn func(*Rank)) []Stats {
	stats, err := NewWorld(size).Run(fn)
	if err != nil {
		panic(err)
	}
	return stats
}

// Rank is one process's handle on a communicator. The handle World.Run
// passes to the rank function spans the whole world; Subset derives
// handles over smaller rank groups. A Rank value is only valid inside
// the goroutine World.Run created it for.
//
// Comm is an alias for Rank emphasising the communicator role of derived
// handles.
type Rank struct {
	world   *World
	id      int   // rank within this communicator; < 0 on a non-member handle
	wid     int   // rank within the world (mailbox and stats index)
	ranks   []int // member world ranks by communicator rank; nil for the world
	tagBase int64 // this communicator's collective tag namespace
	collSeq int   // collective sequence number; members advance in lockstep
	subs    int   // sub-communicators created from this one
}

// Comm is a communicator handle: the world communicator World.Run hands
// to each rank, or a subset of one created with Subset.
type Comm = Rank

// ID returns this rank's index in [0, Size()) within this communicator,
// or a negative value on a handle held by a non-member.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in this communicator.
func (r *Rank) Size() int {
	if r.ranks == nil {
		return r.world.size
	}
	return len(r.ranks)
}

// WorldID returns this rank's index in the world communicator.
func (r *Rank) WorldID() int { return r.wid }

// Member reports whether this rank belongs to the communicator; only
// members may communicate through the handle.
func (r *Rank) Member() bool { return r.id >= 0 }

// worldOf maps a communicator rank to its world rank.
func (r *Rank) worldOf(i int) int {
	if r.ranks == nil {
		return i
	}
	return r.ranks[i]
}

// Subset derives a communicator over a subset of this communicator's
// ranks (the analogue of MPI_Comm_create). members lists the member
// ranks of this communicator in strictly increasing order; member i of
// the subset is members[i]. Every member of this communicator must call
// Subset at the same point in its collective sequence with the identical
// member list — no messages are exchanged, but the derived communicator's
// tag namespace is allocated deterministically from the call order.
// Members receive a handle with ID() == their index in members;
// non-members receive an inactive handle (Member() == false) that must
// not be used to communicate.
func (r *Rank) Subset(members []int) *Comm {
	if r.id < 0 {
		panic("sim: Subset on a communicator this rank is not a member of")
	}
	if len(members) == 0 {
		panic("sim: communicator subset must have at least one member")
	}
	r.enterOp(opCollective, "Subset")
	base := r.world.subsetTag(r.tagBase, int64(r.subs))
	r.subs++
	world := make([]int, len(members))
	myID := -1
	prev := -1
	for i, m := range members {
		if m <= prev || m >= r.Size() {
			panic("sim: subset members must be strictly increasing ranks of the parent communicator")
		}
		prev = m
		world[i] = r.worldOf(m)
		if m == r.id {
			myID = i
		}
	}
	return &Rank{world: r.world, id: myID, wid: r.wid, ranks: world, tagBase: base}
}

// Stats returns a snapshot of this rank's communication statistics
// (accumulated across all communicators it participates in). Like every
// method of Rank it belongs to the rank's own goroutine.
func (r *Rank) Stats() Stats { return r.world.stats[r.wid] }

// CeilLog2 returns ceil(log2(p)) for p >= 1: the rounds of a tree
// collective, which tests assert per-rank collective rounds against.
func CeilLog2(p int) int {
	d := 0
	for n := 1; n < p; n <<= 1 {
		d++
	}
	return d
}

// Tags at or above collTagBase are reserved for collective transport.
// Each communicator's collective tags live at tagBase<<33 + collTagBase +
// seq, so distinct communicators draw from disjoint ranges and user tags
// (which must stay below collTagBase) can never collide with them.
const collTagBase = 1 << 24

// transport stamps m with the sender's rank in this communicator,
// delivers it and records it; coll selects the collective-tree vs user
// category.
func (r *Rank) transport(to int, m message, nbytes int64, coll bool) {
	if r.id < 0 {
		panic("sim: communication on a communicator this rank is not a member of")
	}
	r.checkAbort()
	m.from = r.id
	r.world.boxes[r.worldOf(to)].put(r.wid, m)
	s := &r.world.stats[r.wid]
	s.MsgsSent++
	s.BytesSent += nbytes
	if coll {
		s.CollMsgs++
		s.CollTransportBytes += nbytes
	} else {
		s.UserMsgs++
		s.UserBytes += nbytes
	}
}

func (r *Rank) sendColl(to, tag int, data any, nbytes int64) {
	r.transport(to, message{tag: tag, data: data}, nbytes, true)
}

// recv blocks until the message from rank `from` of this communicator
// with the given tag arrives.
func (r *Rank) recv(from, tag int) message {
	return r.world.boxes[r.wid].take(r.worldOf(from), from, tag)
}

func (r *Rank) recvColl(from, tag int) any { return r.recv(from, tag).data }

// nextCollTag returns a fresh tag for the next collective. Correct under
// the SPMD requirement that all members of this communicator invoke its
// collectives in program order; collectives on different communicators
// need no mutual ordering because their tag namespaces are disjoint.
func (r *Rank) nextCollTag() int {
	if r.id < 0 {
		panic("sim: collective on a communicator this rank is not a member of")
	}
	t := int(r.tagBase<<33) + collTagBase + r.collSeq
	r.collSeq++
	return t
}

// collTag is nextCollTag behind the per-operation fault gate: every
// public collective passes through it (or enterOp directly) exactly
// once at entry, so Faults.AtCollective indices count whole collective
// operations — not the extra internal tags some of them allocate.
func (r *Rank) collTag(op string) int {
	r.enterOp(opCollective, op)
	return r.nextCollTag()
}

func (r *Rank) countCollective(nbytes int64) {
	s := &r.world.stats[r.wid]
	s.CollectiveCalls++
	s.CollectiveBytes += nbytes
}

func (r *Rank) bumpRounds(n int) { r.world.stats[r.wid].CollRounds += n }

// bruckMsg is one round's payload in the Bruck concatenation: a window of
// per-rank blocks with their modeled sizes.
type bruckMsg struct {
	blocks []any
	sizes  []int64
}

// bruckAllgather concatenates one payload per rank in exactly
// ceil(log2 P) rounds on every rank (any P, not just powers of two) and
// returns the payloads in rank order. Round k: send the first
// min(2^k, P-2^k) accumulated blocks to rank (id-2^k), receive the same
// from rank (id+2^k). After the rounds, block j holds rank (id+j)%P's
// payload; a local rotation restores rank order.
func (r *Rank) bruckAllgather(tag int, data any, nbytes int64) []any {
	p := r.Size()
	if p == 1 {
		return []any{data}
	}
	blocks := make([]any, 1, p)
	sizes := make([]int64, 1, p)
	blocks[0], sizes[0] = data, nbytes
	for dist := 1; dist < p; dist *= 2 {
		cnt := dist
		if rest := p - len(blocks); rest < cnt {
			cnt = rest
		}
		to := (r.id - dist + p) % p
		from := (r.id + dist) % p
		var nb int64
		for _, s := range sizes[:cnt] {
			nb += s
		}
		r.sendColl(to, tag, bruckMsg{blocks[:cnt:cnt], sizes[:cnt:cnt]}, nb)
		in := r.recvColl(from, tag).(bruckMsg)
		blocks = append(blocks, in.blocks...)
		sizes = append(sizes, in.sizes...)
		r.bumpRounds(1)
	}
	out := make([]any, p)
	for j, b := range blocks {
		out[(r.id+j)%p] = b
	}
	return out
}

// bcastTree distributes root's payload down a binomial tree; every rank
// spends at most ceil(log2 P) rounds. All ranks must pass the payload's
// modeled size (forwarding ranks are charged for their tree sends).
func (r *Rank) bcastTree(root, tag int, data any, nbytes int64) any {
	p := r.Size()
	if p == 1 {
		return data
	}
	rel := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			parent := (rel - mask + root) % p
			data = r.recvColl(parent, tag)
			r.bumpRounds(1)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			child := (rel + mask + root) % p
			r.sendColl(child, tag, data, nbytes)
			r.bumpRounds(1)
		}
	}
	return data
}

// reduceBcastInt64Vec elementwise-sums one int64 vector per rank
// (binomial reduce to rank 0, then binomial broadcast); exact, so the
// combine order is irrelevant.
func (r *Rank) reduceBcastInt64Vec(tagUp, tagDown int, v []int64) []int64 {
	p := r.Size()
	if p == 1 {
		return v
	}
	acc := v
	owned := false
	for mask := 1; mask < p; mask <<= 1 {
		if r.id&mask != 0 {
			r.sendColl(r.id-mask, tagUp, acc, int64(8*len(acc)))
			r.bumpRounds(1)
			acc = nil
			break
		}
		if partner := r.id + mask; partner < p {
			in := r.recvColl(partner, tagUp).([]int64)
			if !owned {
				acc = append([]int64(nil), acc...)
				owned = true
			}
			for j, x := range in {
				acc[j] += x
			}
			r.bumpRounds(1)
		}
	}
	return r.bcastTree(0, tagDown, acc, int64(8*len(v))).([]int64)
}

// Barrier blocks until every rank has entered the barrier
// (ceil(log2 P)-round Bruck dissemination).
func (r *Rank) Barrier() {
	tag := r.collTag("Barrier")
	r.countCollective(0)
	r.bruckAllgather(tag, nil, 0)
}

// Allgather gathers one payload per rank and returns them rank-indexed on
// every rank (Bruck concatenation, ceil(log2 P) rounds). Payloads are
// shared by reference across ranks and must not be mutated afterwards.
func (r *Rank) Allgather(data any, nbytes int) []any {
	tag := r.collTag("Allgather")
	r.countCollective(int64(nbytes))
	return r.bruckAllgather(tag, data, int64(nbytes))
}

// AllgatherInt64 gathers one int64 from every rank; the result is indexed
// by rank. This mirrors the paper's MPI_Allgather of one long integer per
// core used to exchange leaf ranges.
func (r *Rank) AllgatherInt64(v int64) []int64 {
	tag := r.collTag("AllgatherInt64")
	r.countCollective(8)
	all := r.bruckAllgather(tag, v, 8)
	out := make([]int64, len(all))
	for i, a := range all {
		out[i] = a.(int64)
	}
	return out
}

// AllgatherUint64 gathers one uint64 from every rank.
func (r *Rank) AllgatherUint64(v uint64) []uint64 {
	all := r.AllgatherInt64(int64(v))
	out := make([]uint64, len(all))
	for i, a := range all {
		out[i] = uint64(a)
	}
	return out
}

// ReduceOp is an associative, commutative reduction on float64.
type ReduceOp func(a, b float64) float64

// Predefined reductions.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Allreduce combines one float64 per rank with op and returns the result
// on every rank. The contributions travel a ceil(log2 P)-round Bruck
// allgather and every rank folds them locally in rank order, so the
// result is bit-identical across runs, independent of arrival order, and
// equal to a serial left fold over ranks 0..P-1.
func (r *Rank) Allreduce(v float64, op ReduceOp) float64 {
	tag := r.collTag("Allreduce")
	r.countCollective(8)
	all := r.bruckAllgather(tag, v, 8)
	acc := all[0].(float64)
	for i := 1; i < len(all); i++ {
		acc = op(acc, all[i].(float64))
	}
	return acc
}

// AllreduceInt64 combines one int64 per rank by summation.
func (r *Rank) AllreduceInt64(v int64) int64 {
	tag := r.collTag("AllreduceInt64")
	r.countCollective(8)
	all := r.bruckAllgather(tag, v, 8)
	var acc int64
	for _, a := range all {
		acc += a.(int64)
	}
	return acc
}

// allreduceVecCutoff is the vector length (float64 count) above which
// AllreduceVec switches from the Bruck allgather with a local fold to
// recursive-halving reduce-scatter + allgather (power-of-two
// communicators only). Short vectors are latency-bound and stay on the
// allgather path.
const allreduceVecCutoff = 1024

// AllreduceVec sums float64 vectors elementwise across ranks. All ranks
// must pass slices of the same length; every rank receives the total.
//
// Short vectors take Allreduce's algorithm: a ceil(log2 P)-round Bruck
// allgather of the raw contributions, then every rank folds them locally
// in rank order. Each rank receives O(P·n) bytes, which for a short,
// latency-bound vector costs less than the ceil(log2 P) extra rounds of
// a reduce-then-broadcast tree. Long vectors on power-of-two
// communicators instead use a recursive-halving reduce-scatter followed
// by a Bruck allgather, so no rank ever receives more than O(n·log2 P)
// bytes, in 2·log2 P rounds. The fold runs in strict rank order on both
// paths, so they return bit-identical results, equal to a serial left
// fold over ranks 0..P-1 and to Allreduce per entry.
func (r *Rank) AllreduceVec(v []float64) []float64 {
	tag := r.collTag("AllreduceVec")
	nb := int64(8 * len(v))
	r.countCollective(nb)
	p := r.Size()
	if p > 1 && p&(p-1) == 0 && len(v) >= allreduceVecCutoff {
		return r.allreduceVecHalving(tag, v)
	}
	// Peers read the payload after this rank has returned: send a copy the
	// caller cannot overwrite.
	all := r.bruckAllgather(tag, append([]float64(nil), v...), nb)
	acc := make([]float64, len(v))
	for _, a := range all {
		for i, x := range a.([]float64) {
			acc[i] += x
		}
	}
	return acc
}

// rsVecMsg carries rank-stamped raw vector windows during the
// recursive-halving reduce-scatter.
type rsVecMsg struct {
	ranks []int32
	parts [][]float64
}

// allreduceVecHalving implements AllreduceVec for power-of-two
// communicators and long vectors. The recursive halving concatenates the
// raw rank-stamped contributions instead of pairwise-summing them: after
// log2 P rounds each rank holds every rank's contribution for its own
// 1/P segment of the index space and folds them locally in strict rank
// order — bit-identical to the allgather path's fold. A Bruck
// allgather of the folded segments then delivers the full vector to
// every rank. log2 P + log2 P rounds; every rank sends O(n·log2 P / 2)
// bytes in the halving phase instead of the allgather path's O(P·n).
func (r *Rank) allreduceVecHalving(tag int, v []float64) []float64 {
	p, n := r.Size(), len(v)
	tagAG := r.nextCollTag()
	segStart := func(i int) int { return i * n / p }
	type contrib struct {
		rank int32
		vals []float64 // covers the current window of the index space
	}
	// Window of whole segments [slo, shi) this rank still reduces.
	slo, shi := 0, p
	held := []contrib{{rank: int32(r.id), vals: v}}
	for dist := p / 2; dist >= 1; dist /= 2 {
		partner := r.id ^ dist
		mid := (slo + shi) / 2
		cut := segStart(mid) - segStart(slo) // element offset of the split
		out := rsVecMsg{ranks: make([]int32, len(held)), parts: make([][]float64, len(held))}
		var nb int64
		keepLow := r.id&dist == 0
		for i, c := range held {
			out.ranks[i] = c.rank
			if keepLow {
				out.parts[i] = c.vals[cut:]
				held[i].vals = c.vals[:cut]
			} else {
				out.parts[i] = c.vals[:cut]
				held[i].vals = c.vals[cut:]
			}
			nb += int64(8 * len(out.parts[i]))
		}
		if keepLow {
			shi = mid
		} else {
			slo = mid
		}
		r.sendColl(partner, tag, out, nb)
		in := r.recvColl(partner, tag).(rsVecMsg)
		for i, rk := range in.ranks {
			held = append(held, contrib{rank: rk, vals: in.parts[i]})
		}
		r.bumpRounds(1)
	}
	// held now has one contribution per rank for my segment; fold them in
	// strict rank order (identical to the serial left fold).
	sort.Slice(held, func(i, j int) bool { return held[i].rank < held[j].rank })
	segLen := segStart(r.id+1) - segStart(r.id)
	acc := make([]float64, segLen)
	for _, c := range held {
		for j, x := range c.vals {
			acc[j] += x
		}
	}
	segs := r.bruckAllgather(tagAG, acc, int64(8*segLen))
	res := make([]float64, n)
	for i, s := range segs {
		copy(res[segStart(i):], s.([]float64))
	}
	return res
}

// ExScan returns the exclusive prefix sum of v across ranks: rank i
// receives sum of v over ranks 0..i-1 (0 on rank 0).
func (r *Rank) ExScan(v int64) int64 {
	tag := r.collTag("ExScan")
	r.countCollective(8)
	all := r.bruckAllgather(tag, v, 8)
	var run int64
	for i := 0; i < r.id; i++ {
		run += all[i].(int64)
	}
	return run
}

// AllreduceError agrees on the outcome of a per-rank fallible operation
// (collective). Every rank passes its local error (nil on success); the
// call returns nil on every rank iff every rank passed nil, and
// otherwise returns, on every rank, one error naming each failing rank
// and its message. Collective I/O uses this so that a failure on any
// rank surfaces loudly on all ranks instead of desynchronizing the
// SPMD collective sequence.
func (r *Rank) AllreduceError(err error) error {
	msg := ""
	if err != nil {
		msg = err.Error()
		if msg == "" {
			msg = "unspecified error"
		}
	}
	all := r.Allgather(msg, len(msg))
	var combined []string
	for rank, a := range all {
		if s := a.(string); s != "" {
			combined = append(combined, fmt.Sprintf("rank %d: %s", rank, s))
		}
	}
	if combined == nil {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(combined, "; "))
}

// Bcast distributes root's payload to every rank down a binomial tree.
// nbytes is the modeled payload size; pass it on every rank (forwarding
// ranks are charged for their tree sends).
func (r *Rank) Bcast(root int, data any, nbytes int) any {
	tag := r.collTag("Bcast")
	r.countCollective(int64(nbytes))
	return r.bcastTree(root, tag, data, int64(nbytes))
}

// AlltoallvSparse exchanges payloads with only the ranks actually
// addressed (collective; every rank must participate, even with nothing
// to send). dests[k] names the destination of payloads[k] and nbytes[k]
// its modeled wire size (nbytes may be nil).
//
// The dynamic-sparse handshake — one int64-vector tree reduction of
// per-destination send counts — tells each rank how many messages to
// expect; payload transport then runs only between actual partners, so
// the per-rank message count is O(communication partners), not O(P).
//
// Returns the received payloads with their source ranks, sorted by
// source (payloads from the same source stay in send order). Payloads
// addressed to the sending rank itself are returned locally without
// transport. For a fixed recurring pattern, build the plan once and use
// NeighborExchange instead to skip the handshake entirely.
func (r *Rank) AlltoallvSparse(dests []int, payloads []any, nbytes []int) ([]int, []any) {
	p := r.Size()
	r.enterOp(opCollective, "AlltoallvSparse")
	tagUp, tagDown, tagPay := r.nextCollTag(), r.nextCollTag(), r.nextCollTag()
	counts := make([]int64, p)
	var selfIdx []int
	for k, d := range dests {
		if d == r.id {
			selfIdx = append(selfIdx, k)
			continue
		}
		counts[d]++
	}
	r.countCollective(int64(8 * p))
	totals := r.reduceBcastInt64Vec(tagUp, tagDown, counts)
	for k, d := range dests {
		if d == r.id {
			continue
		}
		nb := int64(0)
		if nbytes != nil {
			nb = int64(nbytes[k])
		}
		r.transport(d, message{tag: tagPay, data: payloads[k], wild: true}, nb, false)
	}
	nIn := int(totals[r.id])
	type inMsg struct {
		from int
		data any
	}
	ins := make([]inMsg, 0, nIn+len(selfIdx))
	for i := 0; i < nIn; i++ {
		m := r.world.boxes[r.wid].takeAny(tagPay)
		ins = append(ins, inMsg{m.from, m.data})
	}
	for _, k := range selfIdx {
		ins = append(ins, inMsg{r.id, payloads[k]})
	}
	sort.SliceStable(ins, func(i, j int) bool { return ins[i].from < ins[j].from })
	froms := make([]int, len(ins))
	datas := make([]any, len(ins))
	for i, m := range ins {
		froms[i] = m.from
		datas[i] = m.data
	}
	return froms, datas
}

// Payload is one message body of a NeighborExchange. A float vector —
// the only kind of payload on a per-iteration path — travels in F64
// without being boxed; anything else goes in Data with its modelled wire
// size in NBytes. F64 is charged 8 bytes per value on top of NBytes.
type Payload struct {
	F64    []float64
	Data   any
	NBytes int
}

// NeighborExchange sends out[k] to sendTo[k] and receives exactly one
// payload from every rank in recvFrom, stored in the caller's in (same
// length as recvFrom, not aliasing out) in recvFrom order. Both sides of
// the pattern must agree (every rank in someone's sendTo lists that
// someone in its recvFrom), and all ranks must call it at the same point
// in their collective sequence — the plan is typically built once via
// AlltoallvSparse and then reused. No handshake traffic is spent and
// nothing is allocated: the per-rank cost is exactly len(sendTo) sends
// and len(recvFrom) targeted receives. A self entry in sendTo is
// delivered locally to the matching self entry in recvFrom. Payloads are
// shared by reference; out is not retained.
func (r *Rank) NeighborExchange(sendTo []int, out []Payload, recvFrom []int, in []Payload) {
	if len(out) != len(sendTo) || len(in) != len(recvFrom) {
		panic("sim: NeighborExchange payload tables do not match the plan")
	}
	tag := r.collTag("NeighborExchange")
	for k, to := range sendTo {
		if to != r.id {
			p := out[k]
			r.transport(to, message{tag: tag, f64: p.F64, data: p.Data}, int64(8*len(p.F64)+p.NBytes), false)
		}
	}
	self := 0 // self payloads are consumed in send order, like a FIFO stream
	for k, from := range recvFrom {
		if from != r.id {
			m := r.recv(from, tag)
			in[k] = Payload{F64: m.f64, Data: m.data}
			continue
		}
		for self < len(sendTo) && sendTo[self] != r.id {
			self++
		}
		if self == len(sendTo) {
			panic("sim: NeighborExchange recvFrom expects more self payloads than sendTo provides")
		}
		in[k] = out[self]
		self++
	}
}
