package ckpt

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"rhea/internal/sim"
)

// writeSnap commits a minimal 2-rank snapshot at the given step into dir.
func writeSnap(t *testing.T, dir string, step int64) {
	t.Helper()
	sim.Run(2, func(r *sim.Rank) {
		st := &State{
			Step:    step,
			TimeNow: float64(step) * 0.5,
			Trees:   []int32{0},
			Leaves:  []uint64{uint64(r.ID()) + 1},
			T:       []float64{float64(r.ID()) + float64(step)},
			U:       [3][]float64{{1}, {2}, {3}},
			P:       []float64{4},
		}
		if err := Write(r, dir, st); err != nil {
			t.Errorf("write snapshot step %d: %v", step, err)
		}
	})
}

func TestGCKeepsNewest(t *testing.T) {
	parent := t.TempDir()
	for i, name := range []string{"cycle-00001", "cycle-00002", "cycle-00003", "cycle-00004"} {
		writeSnap(t, filepath.Join(parent, name), int64(i+1))
	}
	// An uncommitted (manifest-less) directory must survive any GC: it
	// could be a checkpoint mid-write.
	inflight := filepath.Join(parent, "cycle-00005")
	if err := os.MkdirAll(inflight, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(inflight, "shard-00000.bin"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}

	removed, err := GC(parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the two oldest", removed)
	}
	for _, name := range []string{"cycle-00001", "cycle-00002"} {
		if _, err := os.Stat(filepath.Join(parent, name)); !os.IsNotExist(err) {
			t.Errorf("%s still present after gc", name)
		}
	}
	for _, name := range []string{"cycle-00003", "cycle-00004", "cycle-00005"} {
		if _, err := os.Stat(filepath.Join(parent, name)); err != nil {
			t.Errorf("%s missing after gc: %v", name, err)
		}
	}
	// The survivors must still restore.
	if _, err := ReadShardLocal(filepath.Join(parent, "cycle-00004"), 1); err != nil {
		t.Errorf("survivor unreadable: %v", err)
	}

	// keep < 1 clamps to 1: the newest committed snapshot is never removed.
	if _, err := GC(parent, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(parent, "cycle-00004")); err != nil {
		t.Errorf("newest snapshot deleted by gc keep=0: %v", err)
	}

	// GC of a missing parent is a no-op, not an error (fresh jobs have no
	// snapshot directory yet).
	if removed, err := GC(filepath.Join(parent, "nope"), 1); err != nil || removed != nil {
		t.Errorf("gc on missing dir: %v, %v", removed, err)
	}
}

func TestReadShardLocal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	writeSnap(t, dir, 7)
	for rank := 0; rank < 2; rank++ {
		st, err := ReadShardLocal(dir, rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if st.Step != 7 || math.Float64bits(st.T[0]) != math.Float64bits(float64(rank)+7) {
			t.Fatalf("rank %d state: %+v", rank, st)
		}
	}
	if _, err := ReadShardLocal(dir, 2); err == nil {
		t.Fatal("out-of-range rank did not error")
	}
	if _, err := ReadShardLocal(t.TempDir(), 0); err == nil {
		t.Fatal("uncommitted dir did not error")
	}
}
