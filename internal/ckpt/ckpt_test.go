package ckpt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhea/internal/sim"
)

// testState builds a distinct per-rank state with awkward float values
// (negative zero, denormals, many digits) that only survive a bit-exact
// round trip.
func testState(rank int) *State {
	n := 3 + rank
	st := &State{
		Step:     42,
		TimeNow:  0.1 + 0.2, // 0.30000000000000004
		ConfigFP: 0xdeadbeefcafe0000 + 7,
		Trees:    make([]int32, 2+rank),
		Leaves:   make([]uint64, 2+rank),
		Extra:    map[string]float64{"t.minres": 1.25, "t.extract": math.Pi},
	}
	for i := range st.Leaves {
		st.Trees[i] = int32(20 + i)
		st.Leaves[i] = uint64(rank*100+i) << 5
	}
	st.T = make([]float64, n)
	st.P = make([]float64, n)
	for c := 0; c < 3; c++ {
		st.U[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		st.T[i] = math.Sqrt(float64(rank*n+i)) * 1e-3
		st.P[i] = math.Copysign(0, -1) // -0.0 must round-trip
		for c := 0; c < 3; c++ {
			st.U[c][i] = float64(i-c) * 1e-17
		}
	}
	return st
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

func TestWriteReadRoundTrip(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		dir := filepath.Join(t.TempDir(), "snap")
		sim.Run(p, func(r *sim.Rank) {
			if err := Write(r, dir, testState(r.ID())); err != nil {
				t.Errorf("p=%d rank %d: Write: %v", p, r.ID(), err)
				return
			}
			got, err := Read(r, dir)
			if err != nil {
				t.Errorf("p=%d rank %d: Read: %v", p, r.ID(), err)
				return
			}
			want := testState(r.ID())
			if got.Step != want.Step || math.Float64bits(got.TimeNow) != math.Float64bits(want.TimeNow) ||
				got.ConfigFP != want.ConfigFP {
				t.Errorf("p=%d rank %d: header mismatch: %+v", p, r.ID(), got)
			}
			if len(got.Leaves) != len(want.Leaves) || len(got.Trees) != len(want.Trees) {
				t.Fatalf("p=%d rank %d: %d leaves, %d tree ids, want %d", p, r.ID(), len(got.Leaves), len(got.Trees), len(want.Leaves))
			}
			for i := range want.Leaves {
				if got.Leaves[i] != want.Leaves[i] || got.Trees[i] != want.Trees[i] {
					t.Errorf("p=%d rank %d: leaf %d mismatch", p, r.ID(), i)
				}
			}
			if !bitsEqual(got.T, want.T) || !bitsEqual(got.P, want.P) ||
				!bitsEqual(got.U[0], want.U[0]) || !bitsEqual(got.U[1], want.U[1]) || !bitsEqual(got.U[2], want.U[2]) {
				t.Errorf("p=%d rank %d: field bits not identical after round trip", p, r.ID())
			}
			if got.Extra["t.minres"] != 1.25 || got.Extra["t.extract"] != math.Pi {
				t.Errorf("p=%d rank %d: extras mismatch: %v", p, r.ID(), got.Extra)
			}
		})
	}
}

func TestForestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(2, func(r *sim.Rank) {
		st := testState(r.ID())
		for i := range st.Trees {
			st.Trees[i] = int32(r.ID()*10 + i)
		}
		if err := Write(r, dir, st); err != nil {
			t.Errorf("rank %d: Write: %v", r.ID(), err)
			return
		}
		got, err := Read(r, dir)
		if err != nil {
			t.Errorf("rank %d: Read: %v", r.ID(), err)
			return
		}
		if len(got.Trees) != len(st.Trees) {
			t.Errorf("rank %d: tree ids lost", r.ID())
			return
		}
		for i := range st.Trees {
			if got.Trees[i] != st.Trees[i] {
				t.Errorf("rank %d: tree id %d mismatch", r.ID(), i)
			}
		}
	})
}

// expectReadError asserts that Read fails on every rank and the error
// mentions want.
func expectReadError(t *testing.T, p int, dir, want string) {
	t.Helper()
	errs := make([]error, p)
	sim.Run(p, func(r *sim.Rank) {
		_, err := Read(r, dir)
		errs[r.ID()] = err
	})
	for rank, err := range errs {
		if err == nil {
			t.Errorf("rank %d: Read succeeded, want error mentioning %q", rank, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("rank %d: error %q does not mention %q", rank, err, want)
		}
	}
}

func TestReadMissingManifest(t *testing.T) {
	expectReadError(t, 2, t.TempDir(), "not a committed snapshot")
}

func TestReadTruncatedShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(2, func(r *sim.Rank) {
		if err := Write(r, dir, testState(r.ID())); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	path := filepath.Join(dir, "shard-00001.bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-9], 0o666); err != nil {
		t.Fatal(err)
	}
	// Every rank must report the failure, not only the rank whose shard
	// is damaged.
	expectReadError(t, 2, dir, "truncated")
}

func TestReadCorruptedShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(2, func(r *sim.Rank) {
		if err := Write(r, dir, testState(r.ID())); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	path := filepath.Join(dir, "shard-00000.bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40 // flip one bit mid-payload
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	expectReadError(t, 2, dir, "corrupted")
}

func TestReadWrongRankCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(4, func(r *sim.Rank) {
		if err := Write(r, dir, testState(r.ID())); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	expectReadError(t, 2, dir, "written by 4 ranks")
}

// TestRewriteDropsStaleManifest: rewriting a snapshot directory first
// removes the old manifest, so a crash between shard writes cannot leave
// a manifest committing mixed-generation shards.
func TestRewriteOverwrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	sim.Run(2, func(r *sim.Rank) {
		st := testState(r.ID())
		if err := Write(r, dir, st); err != nil {
			t.Errorf("Write 1: %v", err)
		}
		st.Step = 99
		st.T[0] = 123.456
		if err := Write(r, dir, st); err != nil {
			t.Errorf("Write 2: %v", err)
		}
		got, err := Read(r, dir)
		if err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if got.Step != 99 || got.T[0] != 123.456 {
			t.Errorf("rank %d: second write not visible: step %d T[0] %v", r.ID(), got.Step, got.T[0])
		}
	})
}
