package rhea

// Restart-determinism property tests: running K cycles straight through
// must be indistinguishable — bit for bit — from running k cycles,
// checkpointing, restoring in a fresh communicator and finishing the
// remaining K-k. "Indistinguishable" is checked at every level the
// paper's diagnostics see: per-cycle MINRES iteration counts, the full
// adaptation statistics, Nusselt number and RMS velocity as exact bit
// patterns, and the final nodal T/U vectors on every rank. Plus the
// failure side: damaged snapshots and mismatched configurations must be
// rejected loudly on every rank.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhea/internal/ckpt"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// cycleDiag is everything one RunCycle exposes to the outside world.
type cycleDiag struct {
	minresIters int
	adapt       AdaptStats
	nuBits      uint64
	vrmsBits    uint64
}

func runDiagCycle(s *Sim) cycleDiag {
	ad := s.RunCycle()
	return cycleDiag{
		minresIters: s.LastMinres().Iterations,
		adapt:       ad,
		nuBits:      math.Float64bits(s.Nusselt()),
		vrmsBits:    math.Float64bits(s.RMSVelocity()),
	}
}

func diagEqual(a, b cycleDiag) bool {
	if a.minresIters != b.minresIters || a.nuBits != b.nuBits || a.vrmsBits != b.vrmsBits {
		return false
	}
	x, y := a.adapt, b.adapt
	if x.Refined != y.Refined || x.Coarsened != y.Coarsened || x.BalanceAdded != y.BalanceAdded ||
		x.Unchanged != y.Unchanged || x.ElementsPrev != y.ElementsPrev || x.ElementsNow != y.ElementsNow ||
		len(x.LevelCounts) != len(y.LevelCounts) {
		return false
	}
	for i := range x.LevelCounts {
		if x.LevelCounts[i] != y.LevelCounts[i] {
			return false
		}
	}
	return true
}

func vecBits(v *la.Vec) []uint64 {
	out := make([]uint64, len(v.Data))
	for i, x := range v.Data {
		out[i] = math.Float64bits(x)
	}
	return out
}

// rankState is the per-rank end-of-run state: the owned nodal fields as
// bit patterns plus the time-loop position.
type rankState struct {
	t, u0, u1, u2 []uint64
	step          int
	timeBits      uint64
}

func captureState(s *Sim) rankState {
	return rankState{
		t: vecBits(s.T), u0: vecBits(s.U[0]), u1: vecBits(s.U[1]), u2: vecBits(s.U[2]),
		step:     s.Step,
		timeBits: math.Float64bits(s.TimeNow),
	}
}

func bitsSliceEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkRestartDeterminism runs cfg for total cycles straight through,
// then re-runs it with a checkpoint after cut cycles and a restore in a
// separate communicator, and asserts the two trajectories are
// bit-identical from the cut onward.
func checkRestartDeterminism(t *testing.T, p int, cfg Config, total, cut int) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")

	// Straight run: total cycles, every diagnostic recorded.
	straight := make([]cycleDiag, total)
	straightEnd := make([]rankState, p)
	sim.Run(p, func(r *sim.Rank) {
		s := New(r, cfg)
		for c := 0; c < total; c++ {
			d := runDiagCycle(s)
			if r.ID() == 0 {
				straight[c] = d
			}
		}
		straightEnd[r.ID()] = captureState(s)
	})

	// Interrupted run, part 1: cut cycles, then a checkpoint. The diag
	// prefix must already match the straight run (sanity that the
	// scenario itself is deterministic before restore enters the game).
	sim.Run(p, func(r *sim.Rank) {
		s := New(r, cfg)
		for c := 0; c < cut; c++ {
			d := runDiagCycle(s)
			if r.ID() == 0 && !diagEqual(d, straight[c]) {
				t.Errorf("p=%d cycle %d: pre-checkpoint diagnostics diverge from straight run: %+v vs %+v", p, c, d, straight[c])
			}
		}
		if err := s.Checkpoint(dir); err != nil {
			t.Errorf("p=%d rank %d: Checkpoint: %v", p, r.ID(), err)
		}
	})
	if t.Failed() {
		return
	}

	// Interrupted run, part 2: a fresh communicator restores the
	// snapshot — no New, no initial adaptation, no initial-temperature
	// evaluation — and finishes the remaining cycles.
	sim.Run(p, func(r *sim.Rank) {
		s, err := Restore(r, cfg, dir)
		if err != nil {
			t.Errorf("p=%d rank %d: Restore: %v", p, r.ID(), err)
			return
		}
		for c := cut; c < total; c++ {
			d := runDiagCycle(s)
			if r.ID() == 0 && !diagEqual(d, straight[c]) {
				t.Errorf("p=%d cycle %d: post-restore diagnostics diverge from straight run:\n  resumed:  %+v\n  straight: %+v", p, c, d, straight[c])
			}
		}
		got, want := captureState(s), straightEnd[r.ID()]
		if got.step != want.step || got.timeBits != want.timeBits {
			t.Errorf("p=%d rank %d: time-loop position (step %d, time %x) != straight (%d, %x)",
				p, r.ID(), got.step, got.timeBits, want.step, want.timeBits)
		}
		if !bitsSliceEqual(got.t, want.t) {
			t.Errorf("p=%d rank %d: final T not bit-identical to straight run", p, r.ID())
		}
		if !bitsSliceEqual(got.u0, want.u0) || !bitsSliceEqual(got.u1, want.u1) || !bitsSliceEqual(got.u2, want.u2) {
			t.Errorf("p=%d rank %d: final U not bit-identical to straight run", p, r.ID())
		}
	})
}

// TestRestartDeterminismBox: the pinned box scenario, three cycles,
// interrupted after the first.
func TestRestartDeterminismBox(t *testing.T) {
	ranks := []int{1, 2}
	if !testing.Short() {
		ranks = append(ranks, 4)
	}
	for _, p := range ranks {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkRestartDeterminism(t, p, regressionConfig(), 3, 1)
		})
	}
}

// TestRestartDeterminismShell: the pinned cubed-sphere shell scenario
// (matrix-free, GMG-preconditioned), two cycles, interrupted after the
// first — the forest/mapped-geometry code path of Checkpoint/Restore.
func TestRestartDeterminismShell(t *testing.T) {
	ranks := []int{2}
	if !testing.Short() {
		ranks = []int{1, 2, 4}
	}
	for _, p := range ranks {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkRestartDeterminism(t, p, shellConfig(), 2, 1)
		})
	}
}

// writeBoxSnapshot runs the pinned box scenario for one cycle on p ranks
// and checkpoints it into dir.
func writeBoxSnapshot(t *testing.T, p int, dir string) {
	t.Helper()
	sim.Run(p, func(r *sim.Rank) {
		s := New(r, regressionConfig())
		s.RunCycle()
		if err := s.Checkpoint(dir); err != nil {
			t.Errorf("rank %d: Checkpoint: %v", r.ID(), err)
		}
	})
}

// expectRestoreError asserts Restore fails on every rank with an error
// mentioning want.
func expectRestoreError(t *testing.T, p int, cfg Config, dir, want string) {
	t.Helper()
	errs := make([]error, p)
	sim.Run(p, func(r *sim.Rank) {
		_, err := Restore(r, cfg, dir)
		errs[r.ID()] = err
	})
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d: Restore succeeded, want error mentioning %q", rank, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("rank %d: error %q does not mention %q", rank, err, want)
		}
	}
}

// TestRestoreRejectsTruncatedShard: a shard that lost its tail must fail
// the restore loudly on every rank, not resume from garbage.
func TestRestoreRejectsTruncatedShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	writeBoxSnapshot(t, 2, dir)
	path := filepath.Join(dir, "shard-00001.bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-16], 0o666); err != nil {
		t.Fatal(err)
	}
	expectRestoreError(t, 2, regressionConfig(), dir, "truncated")
}

// TestRestoreRejectsCorruptedShard: same for silent bit rot.
func TestRestoreRejectsCorruptedShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	writeBoxSnapshot(t, 2, dir)
	path := filepath.Join(dir, "shard-00000.bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	expectRestoreError(t, 2, regressionConfig(), dir, "corrupted")
}

// TestRestoreRejectsConfigMismatch: restoring under a config whose
// trajectory-shaping knobs differ from the snapshot's is refused.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	writeBoxSnapshot(t, 2, dir)
	bad := regressionConfig()
	bad.Ra = 2e4
	expectRestoreError(t, 2, bad, dir, "different configuration")

	// InitAdapt only shapes pre-checkpoint history, which the snapshot
	// embodies; changing it must NOT invalidate the snapshot.
	ok := regressionConfig()
	ok.NoInitAdapt = true
	ok.InitAdapt = 0
	sim.Run(2, func(r *sim.Rank) {
		if _, err := Restore(r, ok, dir); err != nil {
			t.Errorf("rank %d: Restore with different InitAdapt rejected: %v", r.ID(), err)
		}
	})
}

// The fingerprints of regressionConfig under retired solver choices: the
// assembled coupled CSR (0 in the operator slot), and the matrix-free
// operator with the algebraic-multigrid velocity preconditioner (0 in the
// preconditioner slot). The solver left, matrix-free with geometric
// multigrid, writes 1 in both, as it always did.
const (
	assembledFP = 0x3dd423bef689e030
	amgFP       = 0x5ebb58190c166cb9
	gmgFP       = 0x45ec6696311d29e6
)

// TestRestoreRefusesAssembledSnapshot: a snapshot written under a retired
// solver choice — the assembled coupled operator, or the algebraic
// multigrid velocity preconditioner — would not continue bit for bit, so
// Restore refuses it with the fingerprint error, while runs of the solver
// left keep their fingerprint and their snapshots.
func TestRestoreRefusesAssembledSnapshot(t *testing.T) {
	if fp := regressionConfig().Fingerprint(); fp != gmgFP {
		t.Fatalf("fingerprint %#016x, want the geometric-multigrid run's %#016x", fp, gmgFP)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	writeBoxSnapshot(t, 2, dir)
	for _, fp := range []uint64{assembledFP, amgFP} {
		// The same state, stamped as the retired solver stamped it.
		old := filepath.Join(t.TempDir(), "retired")
		sim.Run(2, func(r *sim.Rank) {
			st, err := ckpt.Read(r, dir)
			if err == nil {
				st.ConfigFP = fp
				err = ckpt.Write(r, old, st)
			}
			if err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
			}
		})
		expectRestoreError(t, 2, regressionConfig(), old, "different configuration")
	}
	sim.Run(2, func(r *sim.Rank) {
		if _, err := Restore(r, regressionConfig(), dir); err != nil {
			t.Errorf("rank %d: Restore of the geometric-multigrid snapshot refused: %v", r.ID(), err)
		}
	})
}

// TestRestoreRejectsWrongRankCount: partition boundaries are part of the
// state; a different communicator size cannot resume the trajectory.
func TestRestoreRejectsWrongRankCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	writeBoxSnapshot(t, 4, dir)
	expectRestoreError(t, 2, regressionConfig(), dir, "written by 4 ranks")
}
