package scenario

// Chaos and durability tests: injected rank failures at every cycle
// boundary and mid-collective must heal into a trajectory bitwise
// identical to an undisturbed run; the journal must carry jobs across
// manager restarts; the watchdog must free hung communicators; and the
// in-memory diag window must report its dropped prefix.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rhea/internal/ckpt"
)

// chaosSpec is the smallest well-posed spec of the given kind for
// fault-injection runs: cheap enough to run many times, rich enough to
// exercise adaptation and per-cycle checkpoints.
func chaosSpec(kind string, ranks, cycles int) Spec {
	sp := Spec{
		Name: fmt.Sprintf("chaos-%s-%dr", kind, ranks), Kind: kind,
		Ranks: ranks, Cycles: cycles,
		TargetElems: 100, AdaptEvery: 2, CheckpointEvery: 1,
	}
	if kind == "shell" {
		sp.BaseLevel, sp.MinLevel, sp.MaxLevel = 1, 1, 2
	} else {
		sp.BaseLevel, sp.MinLevel, sp.MaxLevel = 2, 1, 3
	}
	return sp
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameDiags asserts two diag trajectories agree bit for bit.
func sameDiags(t *testing.T, label string, want, got []CycleDiag) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d diag records, want %d", label, len(got), len(want))
		return
	}
	for c := range want {
		x, y := want[c], got[c]
		if math.Float64bits(x.Nu) != math.Float64bits(y.Nu) ||
			math.Float64bits(x.Vrms) != math.Float64bits(y.Vrms) ||
			math.Float64bits(x.Time) != math.Float64bits(y.Time) ||
			x.MinresIters != y.MinresIters || x.Elements != y.Elements || x.Step != y.Step {
			t.Errorf("%s: cycle %d diverges from the undisturbed run:\n  want %+v\n  got  %+v",
				label, x.Cycle, x, y)
		}
	}
}

// sameShards asserts two committed snapshots hold bit-identical
// per-rank T and U blocks (and the same mesh).
func sameShards(t *testing.T, label, wantDir, gotDir string, ranks int) {
	t.Helper()
	for rank := 0; rank < ranks; rank++ {
		a, err := ckpt.ReadShardLocal(wantDir, rank)
		if err != nil {
			t.Fatalf("%s: reading reference shard %d: %v", label, rank, err)
		}
		b, err := ckpt.ReadShardLocal(gotDir, rank)
		if err != nil {
			t.Fatalf("%s: reading healed shard %d: %v", label, rank, err)
		}
		if a.Step != b.Step || math.Float64bits(a.TimeNow) != math.Float64bits(b.TimeNow) {
			t.Errorf("%s: shard %d at step %d t=%v, want step %d t=%v",
				label, rank, b.Step, b.TimeNow, a.Step, a.TimeNow)
		}
		if len(a.Leaves) != len(b.Leaves) {
			t.Errorf("%s: shard %d holds %d leaves, want %d", label, rank, len(b.Leaves), len(a.Leaves))
			continue
		}
		for i := range a.Leaves {
			if a.Leaves[i] != b.Leaves[i] {
				t.Errorf("%s: shard %d leaf %d differs", label, rank, i)
				break
			}
		}
		if !bitsEqual(a.T, b.T) {
			t.Errorf("%s: shard %d temperature block is not bit-identical", label, rank)
		}
		for d := 0; d < 3; d++ {
			if !bitsEqual(a.U[d], b.U[d]) {
				t.Errorf("%s: shard %d velocity component %d is not bit-identical", label, rank, d)
			}
		}
	}
}

// TestChaosRecoveryBitwiseTrajectory is the headline fault-tolerance
// property: for box and shell scenarios at 1, 2 and 4 ranks, killing a
// rank at every cycle boundary — and once in the middle of a collective
// — must leave a healed run whose per-cycle diagnostics (Nu, Vrms,
// MINRES iterations, element counts) and final per-rank T/U shard bit
// patterns are identical to an undisturbed run of the same spec. Every
// fault must actually fire (Retries >= 1), and no communicator
// goroutines may leak.
func TestChaosRecoveryBitwiseTrajectory(t *testing.T) {
	configs := []struct {
		kind  string
		ranks int
	}{
		{"box", 1}, {"box", 2}, {"box", 4},
		{"shell", 1}, {"shell", 2}, {"shell", 4},
	}
	if testing.Short() {
		configs = []struct {
			kind  string
			ranks int
		}{{"box", 2}, {"shell", 2}}
	}
	const cycles = 3

	g0 := runtime.NumGoroutine()
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%dranks", cfg.kind, cfg.ranks), func(t *testing.T) {
			m := newTestManager(t, t.TempDir(), 2)
			m.retryBase = time.Millisecond
			defer m.Close()

			ref, err := m.Submit(chaosSpec(cfg.kind, cfg.ranks, cycles))
			if err != nil {
				t.Fatalf("Submit reference: %v", err)
			}
			refV := waitTerminal(t, m, ref.ID)
			if refV.State != StateDone || refV.Snapshot == "" {
				t.Fatalf("reference run finished %s (%q)", refV.State, refV.Error)
			}
			refDiags, _, _, err := m.Diags(ref.ID, 0)
			if err != nil {
				t.Fatal(err)
			}

			// One fault plan per cycle boundary, rotating the victim rank,
			// plus one kill deep inside the collective sequence (mid-MINRES
			// or mid-checkpoint, wherever op 120 lands).
			type plan struct {
				name   string
				mutate func(*Spec)
			}
			var plans []plan
			for fc := 1; fc <= cycles; fc++ {
				fc := fc
				plans = append(plans, plan{
					name: fmt.Sprintf("boundary-%d", fc),
					mutate: func(sp *Spec) {
						sp.FaultCycle = fc
						sp.FaultRank = (fc - 1) % cfg.ranks
					},
				})
			}
			plans = append(plans, plan{
				name: "mid-collective",
				mutate: func(sp *Spec) {
					sp.FaultCollective = 120
					sp.FaultRank = cfg.ranks - 1
				},
			})
			if testing.Short() {
				plans = []plan{plans[0], plans[len(plans)-1]}
			}

			ids := make([]int, len(plans))
			for i, p := range plans {
				sp := chaosSpec(cfg.kind, cfg.ranks, cycles)
				p.mutate(&sp)
				v, err := m.Submit(sp)
				if err != nil {
					t.Fatalf("Submit %s: %v", p.name, err)
				}
				ids[i] = v.ID
			}
			for i, p := range plans {
				v := waitTerminal(t, m, ids[i])
				if v.State != StateDone || v.CyclesDone != cycles {
					t.Fatalf("%s: healed run finished %s with %d cycles (%q)",
						p.name, v.State, v.CyclesDone, v.Error)
				}
				if v.Retries < 1 {
					t.Errorf("%s: injected fault never fired (0 retries)", p.name)
				}
				got, _, _, err := m.Diags(ids[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				sameDiags(t, p.name, refDiags, got)
				sameShards(t, p.name, refV.Snapshot, v.Snapshot, cfg.ranks)
			}
		})
	}

	// Every world (including the aborted attempts) must have wound down.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > g0+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0+2 {
		t.Errorf("goroutine leak: %d before the chaos runs, %d after", g0, n)
	}
}

// TestJournalRestartRestoresJobs simulates a server crash: a journal
// whose last complete record says a job was running (plus a truncated
// trailing record, the signature of dying mid-append) must replay into
// a resumable interrupted job with its cycle count and snapshot intact,
// a still-queued submit must re-enqueue and run, and resuming the
// interrupted job must extend the exact trajectory.
func TestJournalRestartRestoresJobs(t *testing.T) {
	root := t.TempDir()
	m := newTestManager(t, root, 1)
	a, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	av := waitTerminal(t, m, a.ID)
	if av.State != StateDone || av.Snapshot == "" {
		t.Fatalf("seed job finished %s (%q)", av.State, av.Error)
	}
	m.Close()

	// Forge the crash: job 1 was resumed for a third cycle and the
	// process died mid-run, then mid-append of the next record; job 2
	// was accepted but never started.
	f, err := os.OpenFile(filepath.Join(root, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp2 := tinySpec(1)
	for _, rec := range []jrec{
		{Op: opState, ID: a.ID, State: StateQueued, Target: 3},
		{Op: opState, ID: a.ID, State: StateRunning, Target: 3},
		{Op: opSubmit, ID: 2, Spec: &sp2, Target: sp2.Cycles},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Write([]byte(`{"op":"cycle","id":1,"cyc`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newTestManager(t, root, 1)
	defer m2.Close()

	v, err := m2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateInterrupted || !strings.Contains(v.Error, "interrupted") {
		t.Fatalf("crashed job replayed as %s (%q), want interrupted", v.State, v.Error)
	}
	if v.CyclesDone != 2 || v.Snapshot != av.Snapshot || v.TargetCycles != 3 {
		t.Fatalf("crashed job lost its bookkeeping: %+v (want 2 cycles, snapshot %s)", v, av.Snapshot)
	}

	// The still-queued submit re-enqueues and completes on its own.
	if v2 := waitTerminal(t, m2, 2); v2.State != StateDone || v2.CyclesDone != 1 {
		t.Fatalf("requeued job finished %s with %d cycles (%q)", v2.State, v2.CyclesDone, v2.Error)
	}

	// The interrupted job resumes from its journaled snapshot; the
	// stitched trajectory must match a straight 3-cycle run bit for bit.
	if _, err := m2.Resume(a.ID, 1); err != nil {
		t.Fatalf("Resume interrupted job: %v", err)
	}
	v = waitTerminal(t, m2, a.ID)
	if v.State != StateDone || v.CyclesDone != 3 {
		t.Fatalf("resumed job finished %s with %d cycles (%q)", v.State, v.CyclesDone, v.Error)
	}
	ref, err := m2.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	refV := waitTerminal(t, m2, ref.ID)
	if refV.State != StateDone {
		t.Fatalf("reference run finished %s (%q)", refV.State, refV.Error)
	}
	refDiags, _, _, err := m2.Diags(ref.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The restarted manager lost job 1's in-memory diags for cycles 1-2
	// (they are telemetry, not journaled), so only cycle 3 is retained —
	// with the dropped prefix reported.
	ds, dropped, _, err := m2.Diags(a.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 || len(ds) != 1 || ds[0].Cycle != 3 {
		t.Fatalf("resumed job diags: dropped=%d records=%+v, want dropped=2 and cycle 3 only", dropped, ds)
	}
	sameDiags(t, "resumed-cycle-3", refDiags[2:], ds)
	sameShards(t, "resumed-final", refV.Snapshot, v.Snapshot, 2)
}

// TestCloseHaltsActiveJob: Close must wait for a running job to halt at
// its next cycle boundary with a committed snapshot and a journaled
// resumable terminal state — no torn jobs, no lost metadata.
func TestCloseHaltsActiveJob(t *testing.T) {
	root := t.TempDir()
	m := newTestManager(t, root, 1)
	v, err := m.Submit(tinySpec(50))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		jv, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.CyclesDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed a cycle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()

	jv, err := m.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != StateStopped || jv.Snapshot == "" {
		t.Fatalf("job after Close: %+v, want stopped with a snapshot", jv)
	}
	if jv.CyclesDone >= 50 {
		t.Fatalf("Close did not interrupt the run: %+v", jv)
	}

	// The halted state survived in the journal, and the job resumes.
	m2 := newTestManager(t, root, 1)
	defer m2.Close()
	v2, err := m2.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != StateStopped || v2.Snapshot != jv.Snapshot || v2.CyclesDone != jv.CyclesDone {
		t.Fatalf("restarted view %+v, want %+v", v2, jv)
	}
	if _, err := m2.Resume(v.ID, 1); err != nil {
		t.Fatalf("Resume after restart: %v", err)
	}
	if fin := waitTerminal(t, m2, v.ID); fin.State != StateDone || fin.CyclesDone != jv.CyclesDone+1 {
		t.Fatalf("resumed job finished %s with %d cycles (%q)", fin.State, fin.CyclesDone, fin.Error)
	}
}

// TestWatchdogRecoversHungRun parks a rank inside a collective forever;
// the watchdog must abort the communicator and the retry must finish
// the job.
func TestWatchdogRecoversHungRun(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	m.retryBase = time.Millisecond
	defer m.Close()
	sp := tinySpec(2)
	// Generous enough that a healthy retry cycle never trips it even
	// under the race detector, small enough to keep the test quick.
	sp.WatchdogSec = 5
	sp.FaultRank = 1
	sp.FaultCollective = 120
	sp.FaultHang = true
	v, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	jv := waitTerminal(t, m, v.ID)
	if jv.State != StateDone || jv.CyclesDone != 2 {
		t.Fatalf("hung job was not recovered: %+v", jv)
	}
	if jv.Retries < 1 {
		t.Errorf("watchdog recovery did not count as a retry: %+v", jv)
	}
}

// TestDiagRetentionWindow bounds per-job diag memory and reports the
// dropped prefix.
func TestDiagRetentionWindow(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	defer m.Close()
	m.diagWindow = 2
	v, err := m.Submit(tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if jv := waitTerminal(t, m, v.ID); jv.State != StateDone || jv.CyclesDone != 5 {
		t.Fatalf("job finished %s with %d cycles (%q)", jv.State, jv.CyclesDone, jv.Error)
	}
	ds, dropped, state, err := m.Diags(v.ID, 0)
	if err != nil || state != StateDone {
		t.Fatalf("Diags: %v (state %s)", err, state)
	}
	if dropped != 3 || len(ds) != 2 || ds[0].Cycle != 4 || ds[1].Cycle != 5 {
		t.Fatalf("window: dropped=%d records=%+v, want dropped=3 and cycles 4-5", dropped, ds)
	}
	if ds, _, _, _ := m.Diags(v.ID, 4); len(ds) != 1 || ds[0].Cycle != 5 {
		t.Fatalf("Diags(from=4): %+v, want cycle 5 only", ds)
	}
	if ds, _, _, _ := m.Diags(v.ID, 5); len(ds) != 0 {
		t.Fatalf("Diags(from=5): %+v, want empty", ds)
	}
}

// TestNormalizeLevelDefaults is the regression for the level-validation
// precedence bug: partially specified levels must be validated against
// the per-kind defaults the run will actually use, not against literal
// zeros.
func TestNormalizeLevelDefaults(t *testing.T) {
	ok := []Spec{
		{Kind: "box", Cycles: 1, MinLevel: 2},   // default max 3 covers it
		{Kind: "box", Cycles: 1, MinLevel: 3},   // == default max
		{Kind: "shell", Cycles: 1, MaxLevel: 1}, // shell default base is 1
		{Kind: "bunge1", Cycles: 1},             // every registry case is a kind
	}
	for i, sp := range ok {
		if err := sp.normalize(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Kind: "box", Cycles: 1, MinLevel: 4},  // above default max 3
		{Kind: "box", Cycles: 1, BaseLevel: 4}, // base above default max
		{Kind: "box", Cycles: 1, MaxLevel: 1},  // below default base 2
		{Kind: "box", Cycles: 1, MaxRetries: -2},
		{Kind: "box", Cycles: 1, WatchdogSec: -0.5},
		{Kind: "box", Cycles: 1, KeepSnapshots: -2},
		{Kind: "box", Cycles: 1, FaultCycle: 1, FaultCollective: 1},
		{Kind: "box", Cycles: 1, FaultHang: true},
		{Kind: "box", Cycles: 1, FaultCycle: 1, FaultRank: 5}, // ranks default to 2
		{Kind: "box", Cycles: 1, FaultCycle: -1},
	}
	for i, sp := range bad {
		if err := sp.normalize(); err == nil {
			t.Errorf("invalid spec %d (%+v) accepted", i, sp)
		}
	}
}

// TestResumeQueueFullKeepsTerminalState: a Resume that cannot enqueue
// must put the job's terminal record back instead of leaving it falsely
// queued (regression for the queue-full overwrite bug).
func TestResumeQueueFullKeepsTerminalState(t *testing.T) {
	m := &Manager{queue: make(chan *job)} // unbuffered, nothing draining it
	j := &job{
		id: 1, spec: tinySpec(1), state: StateFailed, err: "rank 1 failed",
		cyclesDone: 1, target: 1, snapshot: "snap",
	}
	m.jobs = []*job{j}
	if _, err := m.Resume(1, 2); err == nil {
		t.Fatal("Resume succeeded with a full queue")
	}
	v, err := m.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || v.Error != "rank 1 failed" || v.TargetCycles != 1 {
		t.Fatalf("terminal record overwritten by failed Resume: %+v", v)
	}
	if j.resumeFrom != "" {
		t.Errorf("failed Resume left resumeFrom=%q", j.resumeFrom)
	}
}
