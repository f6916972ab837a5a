package sim

// Fault tolerance: the runtime's answer to "what happens when a rank
// dies". On the paper's target machine (tens of thousands of cores) a
// component failure during a multi-day run is a certainty, not a
// possibility; the simulated runtime models it so the layers above
// (checkpointing, the scenario service's retry loop) can be exercised
// against real failures instead of assuming a perfect machine.
//
// A rank dies in one of three ways: a deterministic injected fault
// (Faults, for tests and chaos drills), an explicit Kill call from rank
// code, or a panic escaping the rank function (a genuine bug). In every
// case the world aborts: the first failure is recorded, every mailbox
// is poisoned and every blocked or future communication operation on
// any surviving rank unwinds with ErrRankFailed instead of deadlocking.
// World.Run waits for all rank goroutines to exit — no goroutine ever
// leaks past Run — and returns the failure as its error.
//
// Abort propagation is cooperative at communication boundaries: a rank
// in the middle of pure local computation keeps computing until its
// next Send/Recv/collective, where it unwinds. A rank that hangs
// without communicating (modeled by Faults.Hang) can only be freed by
// World.Abort — which is what the scenario service's per-cycle
// watchdog calls when a job stops making progress. A world that can
// never progress again — every rank that has not returned is parked in
// a receive — is failed by the runtime itself (World.block).

import (
	"fmt"
	"runtime/debug"
	"time"
)

// ErrRankFailed is the error every surviving rank's communication
// unwinds with — and World.Run returns — after a rank dies or the
// world is aborted. Rank is the world rank that failed, or -1 for an
// external World.Abort; Op names the operation at which it died.
type ErrRankFailed struct {
	Rank int
	Op   string
}

func (e ErrRankFailed) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("sim: run aborted: %s", e.Op)
	}
	return fmt.Sprintf("sim: rank %d failed at %s", e.Rank, e.Op)
}

// Faults is a deterministic fault-injection plan, installed on a World
// with SetFaults before Run. It kills (or hangs) one chosen rank at a
// chosen operation index, so a failure can be replayed at exactly the
// same point of the communication schedule on every run. Operation
// counts are per KillRank and 1-based: AtCollective n fires when the
// rank enters its n-th collective call (on any communicator, Subset
// included), AtSend n when it enters its n-th point-to-point send to
// another rank: a Rank.Send, or one payload of an AlltoallvSparse or a
// NeighborExchange, so a plan can kill a rank halfway through one
// exchange. At most one trigger may be set.
type Faults struct {
	KillRank     int           // world rank to kill
	AtCollective int           // fire entering this rank's n-th collective (0: unused)
	AtSend       int           // fire entering this rank's n-th point-to-point send (0: unused)
	Hang         bool          // hang (wakeable only by abort) instead of dying loudly
	Delay        time.Duration // optional pause before the fault takes effect
}

// SetFaults installs a fault-injection plan. It must be called before
// Run; a nil plan clears injection.
func (w *World) SetFaults(f *Faults) {
	if f != nil {
		if f.KillRank < 0 || f.KillRank >= w.size {
			panic(fmt.Sprintf("sim: fault KillRank %d outside world of %d ranks", f.KillRank, w.size))
		}
		set := 0
		if f.AtCollective > 0 {
			set++
		}
		if f.AtSend > 0 {
			set++
		}
		if set != 1 {
			panic("sim: fault plan must set exactly one of AtCollective/AtSend (positive, 1-based)")
		}
	}
	w.faults = f
}

// Abort kills the whole run from outside the rank goroutines: every
// rank's next (or currently blocked) communication operation unwinds,
// and World.Run returns ErrRankFailed{Rank: -1, Op: op}. Safe to call
// from any goroutine, any number of times; the first failure wins.
// This is the hook for external supervisors — a watchdog that detects
// a hung communicator aborts it instead of leaking the run forever.
func (w *World) Abort(op string) {
	w.fail(ErrRankFailed{Rank: -1, Op: op})
}

// Kill terminates the calling rank as if it had crashed at the given
// operation: the world aborts and the run's error is ErrRankFailed
// naming this rank and op. It must be called from inside a rank
// function; it does not return. Application layers use it to inject
// failures at points the transport layer cannot see (e.g. a scenario
// cycle boundary).
func Kill(op string) {
	panic(killUnwind{op: op})
}

// killUnwind is the panic payload of an injected or explicit kill: the
// rank is the failure's origin.
type killUnwind struct{ op string }

// abortUnwind is the panic payload unwinding a *surviving* rank after
// some other failure poisoned the world; it is not a new failure.
type abortUnwind struct{ err ErrRankFailed }

// fail records the first failure, closes the abort channel and poisons
// every mailbox so all blocked consumers wake and unwind. Later
// failures are ignored (the first rank to die is the run's cause; the
// cascade of unwinding survivors is not).
func (w *World) fail(e ErrRankFailed) {
	if !w.failed.CompareAndSwap(nil, &e) {
		return
	}
	close(w.abortCh)
	for _, mb := range w.boxes {
		mb.poison(&e)
	}
}

// checkAbort unwinds the calling rank if the world has failed. Called
// at the entry of every communication operation, so no rank can keep
// communicating with (or blocking on) a dead world.
func (r *Rank) checkAbort() {
	if f := r.world.failed.Load(); f != nil {
		panic(abortUnwind{err: *f})
	}
}

// Fault trigger kinds for enterOp.
const (
	opCollective = iota
	opSend
)

// enterOp is the per-operation gate: abort check first, then fault
// injection. kind selects which of the rank's operation counters
// advances; op names the operation for the failure record. Counters
// only advance while a fault plan targets this rank, so the plan's
// indices are stable and the no-faults fast path stays cheap.
func (r *Rank) enterOp(kind int, op string) {
	r.checkAbort()
	w := r.world
	w.ops[r.wid].op = op
	f := w.faults
	if f == nil || r.wid != f.KillRank {
		return
	}
	c := &w.ops[r.wid]
	var n, at int
	switch kind {
	case opCollective:
		c.colls++
		n, at = c.colls, f.AtCollective
	case opSend:
		c.sends++
		n, at = c.sends, f.AtSend
	}
	if at <= 0 || n != at {
		return
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Hang {
		// A hung rank: it holds no locks and sends nothing, it just
		// stops participating. Only an abort (a peer's failure or an
		// external watchdog) can free it.
		<-w.abortCh
		r.checkAbort()
		return // unreachable: abortCh closes only via fail
	}
	panic(killUnwind{op: fmt.Sprintf("%s[%d] (injected fault)", op, n)})
}

// opCounts tracks one rank's fault-relevant operation indices and the
// operation it last entered. Each entry is written only by its owning
// rank goroutine; failStuck reads op under the rank's mailbox lock while
// the rank is parked.
type opCounts struct {
	colls, sends int
	op           string
}

// stuckGrace is how long a world nobody can move any more waits before
// it fails itself: a supervisor that is already aborting it (the
// scenario watchdog, a test) names the cause better, and its abort wins.
const stuckGrace = 500 * time.Millisecond

// block adds delta to the progress watch: +1 when a rank parks in a
// receive, -1 when its waker (or a poison) takes it off again, +1<<32
// when a rank's function returns. A rank is only ever taken off by a
// rank that is running, so once every rank that has not returned is
// parked no message can arrive any more: the world is stuck for good,
// and block arms the timer that fails it.
func (w *World) block(delta int64) {
	v := w.blocked.Add(delta)
	parked, done := int(int32(v)), int(v>>32)
	if delta > 0 && parked > 0 && parked+done == w.size && w.failed.Load() == nil && w.stuckSeen.CompareAndSwap(false, true) {
		w.stuckTimer = time.AfterFunc(stuckGrace, w.failStuck)
	}
}

// failStuck fails a stuck world with an ErrRankFailed that names the
// first rank that returned (-1 when none did: a deadlock) and the
// operation the lowest parked rank waits in.
func (w *World) failStuck() {
	for i, mb := range w.boxes {
		mb.mu.Lock()
		waiting, op := mb.waiting, ""
		if waiting {
			op = w.ops[i].op
		}
		mb.mu.Unlock()
		if !waiting {
			continue // a rank that returned, or one a failure took off meanwhile
		}
		first, what := int(w.firstDone.Load())-1, "deadlock: every rank waits, rank %d in %s"
		if first >= 0 {
			what = "return while rank %d waits in %s"
		}
		w.fail(ErrRankFailed{Rank: first, Op: fmt.Sprintf(what, i, op)})
		return
	}
}

// runRank executes fn as rank id, converting every way the rank can
// die into a recorded failure: an injected or explicit Kill, or a
// panic escaping fn (a real bug — its message and stack become the
// failure's Op). An abortUnwind is the rank being unwound by someone
// else's failure and records nothing.
func (w *World) runRank(id int, fn func(*Rank)) {
	defer func() {
		p := recover()
		if p == nil {
			w.firstDone.CompareAndSwap(0, int32(id)+1)
			w.block(1 << 32)
			return
		}
		switch v := p.(type) {
		case abortUnwind:
			// Survivor unwound cleanly after another rank's failure.
		case killUnwind:
			w.fail(ErrRankFailed{Rank: id, Op: v.op})
		default:
			w.fail(ErrRankFailed{Rank: id, Op: fmt.Sprintf("panic: %v\n%s", v, debug.Stack())})
		}
	}()
	fn(&Rank{world: w, id: id, wid: id, tagBase: 1})
}
