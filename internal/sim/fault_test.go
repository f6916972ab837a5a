package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and returns an assertion that
// the count returned to (at most) the snapshot. Run after every faulted
// run: abort semantics promise that no rank goroutine outlives Run.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFaultKillAtCollective kills one rank at a chosen collective while
// the other ranks are blocked inside the same (or a later) collective;
// every survivor must unwind and Run must report the injected failure.
func TestFaultKillAtCollective(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(4)
	w.SetFaults(&Faults{KillRank: 2, AtCollective: 3})
	_, err := w.Run(func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Allreduce(float64(r.ID()), OpSum)
		}
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) {
		t.Fatalf("Run error = %v, want ErrRankFailed", err)
	}
	if rf.Rank != 2 || rf.Op != "Allreduce[3] (injected fault)" {
		t.Fatalf("failure = %+v", rf)
	}
}

// TestFaultDeterministic replays the same plan and asserts the failure
// is byte-identical: same rank, same operation index, same name.
func TestFaultDeterministic(t *testing.T) {
	run := func() error {
		w := NewWorld(3)
		w.SetFaults(&Faults{KillRank: 1, AtCollective: 5})
		_, err := w.Run(func(r *Rank) {
			for i := 0; i < 8; i++ {
				r.Barrier()
			}
		})
		return err
	}
	a, b := run(), run()
	if a == nil || b == nil || a.Error() != b.Error() {
		t.Fatalf("fault injection not deterministic:\n  %v\n  %v", a, b)
	}
	if want := "sim: rank 1 failed at Barrier[5] (injected fault)"; a.Error() != want {
		t.Fatalf("error = %q, want %q", a, want)
	}
}

// TestFaultKillAtSend kills the sender while its peer is blocked in
// Recv: the receiver must unblock with the failure instead of waiting
// forever on a message that will never arrive.
func TestFaultKillAtSend(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(2)
	w.SetFaults(&Faults{KillRank: 0, AtSend: 2})
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, "a", 1)
			r.Send(1, 2, "b", 1) // dies entering this send
		} else {
			r.Recv(0, 1)
			r.Recv(0, 2) // blocks forever unless poisoned
		}
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 0 || rf.Op != "Send[2] (injected fault)" {
		t.Fatalf("Run error = %v", err)
	}
}

// TestPanicBecomesFailure: a genuine bug (panic escaping the rank
// function) aborts the world and surfaces as a failure carrying the
// panic message, instead of crashing the process or deadlocking peers.
func TestPanicBecomesFailure(t *testing.T) {
	defer leakCheck(t)()
	_, err := NewWorld(3).Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("injected bug")
		}
		r.Barrier() // peers block here until the abort frees them
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("Run error = %v, want rank 1 failure", err)
	}
	if !strings.Contains(rf.Op, "panic: injected bug") {
		t.Fatalf("failure op %q does not carry the panic message", rf.Op)
	}
}

// TestKillExplicit: application-level Kill dies at a named operation.
func TestKillExplicit(t *testing.T) {
	defer leakCheck(t)()
	_, err := NewWorld(2).Run(func(r *Rank) {
		if r.ID() == 0 {
			Kill("cycle 3 boundary")
		}
		r.Barrier()
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 0 || rf.Op != "cycle 3 boundary" {
		t.Fatalf("Run error = %v", err)
	}
}

// TestAbortUnblocksBlockedRanks: an external Abort (the watchdog path)
// frees ranks blocked in point-to-point receives and collectives.
func TestAbortUnblocksBlockedRanks(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(3)
	go func() {
		time.Sleep(50 * time.Millisecond)
		w.Abort("watchdog: no progress for 2 cycles")
	}()
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 7) // never sent
		} else {
			r.Barrier() // rank 0 never joins
		}
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != -1 {
		t.Fatalf("Run error = %v, want external abort", err)
	}
	if want := "sim: run aborted: watchdog: no progress for 2 cycles"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestHangThenAbort: a hang fault parks the rank without any loud
// failure — only an external Abort can finish the run. This is exactly
// the scenario the service watchdog exists for.
func TestHangThenAbort(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(2)
	w.SetFaults(&Faults{KillRank: 1, AtCollective: 2, Hang: true})
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(func(r *Rank) {
			for i := 0; i < 4; i++ {
				r.Barrier()
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("run finished on its own (%v); the hang should require an abort", err)
	case <-time.After(100 * time.Millisecond):
	}
	w.Abort("test watchdog")
	select {
	case err := <-done:
		var rf ErrRankFailed
		if !errors.As(err, &rf) || rf.Rank != -1 || rf.Op != "test watchdog" {
			t.Fatalf("Run error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not free the hung run")
	}
}

// TestSubsetCollectivesCountAndAbort: fault indices count collectives on
// every communicator (Subset creation and subset collectives included),
// and ranks outside the dying rank's subset still unwind.
func TestSubsetCollectivesCountAndAbort(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(4)
	// Rank 1's collectives: Barrier(1), Subset(2), sub-Allreduce(3).
	w.SetFaults(&Faults{KillRank: 1, AtCollective: 3})
	_, err := w.Run(func(r *Rank) {
		r.Barrier()
		sub := r.Subset([]int{0, 1})
		if sub.Member() {
			sub.Allreduce(1, OpSum)
		}
		r.Barrier() // ranks 2,3 wait here; must be freed by the abort
	})
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 1 || rf.Op != "Allreduce[3] (injected fault)" {
		t.Fatalf("Run error = %v", err)
	}
}

// TestDelayFault: Delay postpones the death but changes nothing else.
func TestDelayFault(t *testing.T) {
	defer leakCheck(t)()
	w := NewWorld(2)
	w.SetFaults(&Faults{KillRank: 0, AtCollective: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	_, err := w.Run(func(r *Rank) { r.Barrier() })
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("run finished in %v, before the injected delay", d)
	}
	var rf ErrRankFailed
	if !errors.As(err, &rf) || rf.Rank != 0 {
		t.Fatalf("Run error = %v", err)
	}
}

// TestRunPanicsOnFailure: the fire-and-forget package-level Run turns a
// failure into a panic so it cannot be silently swallowed.
func TestRunPanicsOnFailure(t *testing.T) {
	defer leakCheck(t)()
	defer func() {
		p := recover()
		rf, ok := p.(ErrRankFailed)
		if !ok || rf.Rank != 0 {
			t.Fatalf("Run panicked with %v, want ErrRankFailed{Rank: 0}", p)
		}
	}()
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			Kill("boom")
		}
		r.Barrier()
	})
	t.Fatal("Run returned despite a rank failure")
}

// TestNoFaultClean: a clean run with a (non-firing) plan installed and
// with no plan returns no error and full stats.
func TestNoFaultClean(t *testing.T) {
	w := NewWorld(2)
	w.SetFaults(&Faults{KillRank: 0, AtCollective: 100})
	stats, err := w.Run(func(r *Rank) { r.Barrier() })
	if err != nil || len(stats) != 2 {
		t.Fatalf("clean run: stats %d, err %v", len(stats), err)
	}
	stats, err = NewWorld(2).Run(func(r *Rank) { r.Barrier() })
	if err != nil || len(stats) != 2 {
		t.Fatalf("clean run: stats %d, err %v", len(stats), err)
	}
}

// TestSetFaultsValidation rejects malformed plans.
func TestSetFaultsValidation(t *testing.T) {
	for _, f := range []*Faults{
		{KillRank: 2, AtCollective: 1}, // rank out of range
		{KillRank: -1, AtCollective: 1},
		{KillRank: 0},                             // no trigger
		{KillRank: 0, AtCollective: 1, AtSend: 1}, // two triggers
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetFaults(%+v) did not panic", f)
				}
			}()
			NewWorld(2).SetFaults(f)
		}()
	}
}
