package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rhea/internal/ckpt"
	"rhea/internal/sim"
)

// tinySpec is the smallest well-posed box scenario: 64 base elements
// (the 8-element base-level-1 mesh has too few interior velocity DOFs
// for the solver to converge), one adaptive level, two transport steps
// per cycle.
func tinySpec(cycles int) Spec {
	return Spec{
		Name: "tiny", Kind: "box", Ranks: 2, Cycles: cycles,
		BaseLevel: 2, MinLevel: 1, MaxLevel: 3, TargetElems: 100,
		AdaptEvery: 2, CheckpointEvery: 1,
	}
}

// newTestManager builds a Manager rooted in a fresh temp dir (or the
// given dir, for restart tests) and fails the test on journal errors.
func newTestManager(t *testing.T, root string, workers int) *Manager {
	t.Helper()
	m, err := NewManager(root, workers)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// waitTerminal polls job id until it leaves the queued/running states.
func waitTerminal(t *testing.T, m *Manager, id int) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if v.State != StateQueued && v.State != StateRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach a terminal state", id)
	return JobView{}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2)
	defer m.Close()

	v, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.ID != 1 || v.TargetCycles != 2 {
		t.Fatalf("unexpected submit view: %+v", v)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != StateDone || v.Error != "" {
		t.Fatalf("job finished %s (%q), want done", v.State, v.Error)
	}
	if v.CyclesDone != 2 {
		t.Errorf("cycles_done %d, want 2", v.CyclesDone)
	}
	if v.Snapshot == "" {
		t.Fatal("done job has no committed snapshot")
	}
	if _, err := os.Stat(filepath.Join(v.Snapshot, "manifest.json")); err != nil {
		t.Errorf("snapshot manifest missing: %v", err)
	}

	ds, dropped, state, err := m.Diags(v.ID, 0)
	if err != nil || state != StateDone || dropped != 0 {
		t.Fatalf("Diags: %v (state %s, dropped %d)", err, state, dropped)
	}
	if len(ds) != 2 {
		t.Fatalf("%d diag records, want 2", len(ds))
	}
	for i, d := range ds {
		if d.Cycle != i+1 {
			t.Errorf("diag %d has cycle %d", i, d.Cycle)
		}
		if d.Elements <= 0 || d.MinresIters <= 0 || math.IsNaN(d.Nu) || math.IsNaN(d.Vrms) {
			t.Errorf("diag %d not physical: %+v", i, d)
		}
	}

	if got := m.List(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("List: %+v", got)
	}
	if _, err := m.Get(99); err == nil {
		t.Error("Get(99) succeeded for a job that was never submitted")
	}
}

// TestResumeContinuesExactTrajectory is the service-level restart
// determinism property: a job run 1 cycle, resumed for 1 more, must
// produce bit-identical cycle-2 diagnostics to a job run 2 cycles
// straight.
func TestResumeContinuesExactTrajectory(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	defer m.Close()

	a, err := m.Submit(tinySpec(2))
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	b, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	waitTerminal(t, m, a.ID)
	bv := waitTerminal(t, m, b.ID)
	if bv.State != StateDone {
		t.Fatalf("job b finished %s (%q)", bv.State, bv.Error)
	}

	bv, err = m.Resume(b.ID, 1)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if bv.State != StateQueued || bv.TargetCycles != 2 {
		t.Fatalf("resume view: %+v", bv)
	}
	bv = waitTerminal(t, m, b.ID)
	if bv.State != StateDone || bv.CyclesDone != 2 {
		t.Fatalf("resumed job finished %s with %d cycles (%q)", bv.State, bv.CyclesDone, bv.Error)
	}

	da, _, _, err := m.Diags(a.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _, err := m.Diags(b.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != 2 || len(db) != 2 {
		t.Fatalf("diag lengths %d, %d, want 2, 2", len(da), len(db))
	}
	for c := 0; c < 2; c++ {
		x, y := da[c], db[c]
		if math.Float64bits(x.Nu) != math.Float64bits(y.Nu) ||
			math.Float64bits(x.Vrms) != math.Float64bits(y.Vrms) ||
			x.MinresIters != y.MinresIters || x.Elements != y.Elements || x.Step != y.Step {
			t.Errorf("cycle %d: resumed job diverges from straight run:\n  straight: %+v\n  resumed:  %+v", c+1, x, y)
		}
	}
}

// TestStopAndResume: a stop request on a queued job halts it before any
// cycle, still leaves a resumable snapshot, and a resume finishes the
// work.
func TestStopAndResume(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	defer m.Close()

	// One worker: job b stays queued while a runs, so the stop flag is
	// guaranteed to be visible before b's first cycle.
	a, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(b.ID); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	waitTerminal(t, m, a.ID)
	bv := waitTerminal(t, m, b.ID)
	if bv.State != StateStopped {
		t.Fatalf("stopped job reached %s (%q)", bv.State, bv.Error)
	}
	if bv.CyclesDone != 0 {
		t.Errorf("stopped-before-start job ran %d cycles", bv.CyclesDone)
	}
	if bv.Snapshot == "" {
		t.Fatal("stopped job has no snapshot to resume from")
	}

	if _, err := m.Resume(b.ID, 3); err != nil {
		t.Fatalf("Resume after stop: %v", err)
	}
	bv = waitTerminal(t, m, b.ID)
	if bv.State != StateDone || bv.CyclesDone != 3 {
		t.Fatalf("resumed job finished %s with %d cycles (%q)", bv.State, bv.CyclesDone, bv.Error)
	}
}

// amgEraFP is tinySpec's configuration fingerprint while specs without
// gmg were preconditioned by algebraic multigrid (TestSpecConfigPinned's
// CI smoke row, the same configuration, before its re-pin).
const amgEraFP = 0xa2a73dc91416ad16

// TestResumeRefusesAMGEraSnapshot: a job whose committed snapshot carries
// the fingerprint of the retired algebraic-multigrid preconditioner would
// not continue bit for bit under geometric multigrid. Resumed after the
// upgrade, it ends failed with the fingerprint error after one attempt,
// without retry.
func TestResumeRefusesAMGEraSnapshot(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	m.retryBase = time.Millisecond
	defer m.Close()
	v, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != StateDone || v.Snapshot == "" {
		t.Fatalf("job finished %s with snapshot %q (%q)", v.State, v.Snapshot, v.Error)
	}
	// The same state, stamped as the service stamped it before the upgrade.
	sim.Run(v.Spec.Ranks, func(r *sim.Rank) {
		st, err := ckpt.Read(r, v.Snapshot)
		if err == nil {
			st.ConfigFP = amgEraFP
			err = ckpt.Write(r, v.Snapshot, st)
		}
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if _, err := m.Resume(v.ID, 1); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != StateFailed || v.Retries != 0 || v.CyclesDone != 1 {
		t.Errorf("resumed job finished %s after %d retries with %d cycles (%q), want failed, 0, 1",
			v.State, v.Retries, v.CyclesDone, v.Error)
	}
	if !strings.Contains(v.Error, "different configuration") {
		t.Errorf("job error %q, want the fingerprint error", v.Error)
	}
}

// TestResumeRefusesVersion2Snapshot: a job whose committed snapshot was
// written in format version 2 (which also carried the pressure and the
// writing process's timings) is refused by the version check, not
// mis-parsed. Resumed after the upgrade, it ends failed with the version
// error after one attempt, without retry.
func TestResumeRefusesVersion2Snapshot(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	m.retryBase = time.Millisecond
	defer m.Close()
	v, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != StateDone || v.Snapshot == "" {
		t.Fatalf("job finished %s with snapshot %q (%q)", v.State, v.Snapshot, v.Error)
	}
	// The same snapshot, stamped as a version-2 writer stamped it.
	path := filepath.Join(v.Snapshot, ckpt.ManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 2
	if b, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(v.ID, 1); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	v = waitTerminal(t, m, v.ID)
	if v.State != StateFailed || v.Retries != 0 || v.CyclesDone != 1 {
		t.Errorf("resumed job finished %s after %d retries with %d cycles (%q), want failed, 0, 1",
			v.State, v.Retries, v.CyclesDone, v.Error)
	}
	if !strings.Contains(v.Error, "format version 2") {
		t.Errorf("job error %q, want the format-version error", v.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	defer m.Close()
	bad := []Spec{
		{Kind: "torus", Cycles: 1},
		{Kind: "box", Cycles: 0},
		{Kind: "box", Cycles: 1, Ranks: -3},
		{Kind: "box", Cycles: 1, Ranks: maxRanks + 1},
		{Kind: "box", Cycles: 1, CheckpointEvery: -1},
		{Kind: "box", Cycles: 1, MinLevel: 3, MaxLevel: 2},
		{Kind: "box", Cycles: 1, Picard: -1},
		{Kind: "box", Cycles: 1, AdaptEvery: -1},
		{Kind: "box", Cycles: 1, TargetElems: -1},
		{Kind: "box", Cycles: 1, MinresTol: -1},
		{Kind: "box", Cycles: 1, MaxLevel: 258},
		{Kind: "box", Cycles: 1, BaseLevel: 256},
		{Kind: "box", Cycles: 1, MaxLevel: 25},
	}
	for i, sp := range bad {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("spec %d (%+v) accepted, want validation error", i, sp)
		}
	}
}

func TestResumeRejectsActiveJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1)
	defer m.Close()
	v, err := m.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(v.ID, 1); err == nil {
		t.Error("Resume of a queued/running job succeeded")
	}
	if _, err := m.Resume(99, 1); err == nil {
		t.Error("Resume of an unknown job succeeded")
	}
	waitTerminal(t, m, v.ID)
}

// TestConcurrentJobs drives several jobs through a two-worker pool at
// once — the race-detector target for the worker pool and job table.
func TestConcurrentJobs(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2)
	defer m.Close()
	const n = 4
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		sp := tinySpec(1)
		sp.Name = fmt.Sprintf("tiny-%d", i)
		v, err := m.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for _, id := range ids {
		if v := waitTerminal(t, m, id); v.State != StateDone {
			t.Errorf("job %d finished %s (%q)", id, v.State, v.Error)
		}
	}
}
