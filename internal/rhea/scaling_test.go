package rhea

// The scaling claims of the paper (§V), checked with exact counters at
// hundreds of simulated ranks: the shell convection Stokes solve,
// matrix-free with the GMG preconditioner and its rank-subset coarse
// levels, sends O(neighbours) messages per ghost exchange and O(log2 P)
// rounds per collective, and its MINRES iteration count does not depend
// on P. BENCH_scaling.json is the committed record of the Small ladder.

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"rhea/internal/sim"
)

// scalingCase holds the exact counters of one shell Stokes solve at P
// ranks: per-rank maxima over the solve window (which includes the
// solver set-up), one standalone scalar ghost exchange on the final mesh,
// and one scalar Allreduce.
type scalingCase struct {
	Series            string `json:"series"` // "strong" or "weak"
	Ranks             int    `json:"ranks"`
	Elements          int64  `json:"elements"`
	Nodes             int64  `json:"nodes"`
	MinresIters       int    `json:"minres_iters"`
	MaxUserMsgs       int    `json:"max_user_msgs"`
	MaxUserBytes      int64  `json:"max_user_bytes"`
	MaxCollRounds     int    `json:"max_coll_rounds"`
	MaxCollMsgs       int    `json:"max_coll_msgs"`
	Collectives       int    `json:"collectives"` // rank 0
	MaxGhostNeighbors int    `json:"max_ghost_neighbors"`
	MaxGhostMsgs      int    `json:"max_ghost_msgs_per_gather"`
	AllreduceRounds   int    `json:"allreduce_rounds"`
	Precond           string `json:"precond"`
	GMGLevels         int    `json:"gmg_levels"`
	GMGCoarseRanks    int    `json:"gmg_coarse_ranks"`
	Degenerate        bool   `json:"degenerate,omitempty"`
}

// scalingShellConfig is the pinned scaling scenario: the shell blob on a
// base-2 cubed sphere (1536 elements uniform, so every rank owns elements
// at P = 256), matrix-free with GMG, adapted towards target when maxLvl
// allows it.
func scalingShellConfig(target int64, maxLvl uint8, tol float64) Config {
	return Config{
		Shell: true, Ra: 1e4, InitialTemp: ShellBlobTemp, Visc: TemperatureDependent(1, 1),
		BaseLevel: 2, MinLevel: 2, MaxLevel: maxLvl, TargetElems: target,
		InitAdapt: 1, NoInitAdapt: maxLvl <= 2, // a uniform base mesh when it cannot refine
		AdaptEvery: 4, Picard: 1, MinresTol: tol, MinresMax: 3000,
	}
}

// weakMaxLevel is the shallowest refinement ceiling whose fully refined
// base-2 shell (1536·8^(l-2) elements) covers target.
func weakMaxLevel(target int64) uint8 {
	lvl, n := uint8(2), int64(1536)
	for n < target && lvl < 6 {
		lvl, n = lvl+1, 8*n
	}
	return lvl
}

// runScalingCase runs one shell Stokes solve at p ranks and collects its
// exact counters (collective reductions happen outside every window).
func runScalingCase(series string, p int, cfg Config) scalingCase {
	c := scalingCase{Series: series, Ranks: p}
	sim.Run(p, func(r *sim.Rank) {
		s := New(r, cfg)
		r.Barrier()
		pre := r.Stats()
		s.SolveStokes()
		post := r.Stats()

		gx := s.Mesh.GX
		gpre := r.Stats()
		gx.Gather(make([]float64, s.Mesh.Layout().Local()), make([]float64, gx.NumGhosts()))
		gpost := r.Stats()

		apre := r.Stats()
		r.Allreduce(1, sim.OpSum)
		apost := r.Stats()

		maxI := func(v int) int { return int(r.Allreduce(float64(v), sim.OpMax)) }
		st := s.Mesh.GlobalStats()
		mu, mr, mm := maxI(post.UserMsgs-pre.UserMsgs), maxI(post.CollRounds-pre.CollRounds), maxI(post.CollMsgs-pre.CollMsgs)
		mb := int64(r.Allreduce(float64(post.UserBytes-pre.UserBytes), sim.OpMax))
		gn, gm := maxI(gx.NumNeighbors()), maxI(gpost.UserMsgs-gpre.UserMsgs)
		ar := maxI(apost.CollRounds - apre.CollRounds)
		if r.ID() == 0 {
			c.Elements, c.Nodes, c.MinresIters = st.Elements, st.Nodes, s.LastMinres().Iterations
			c.MaxUserMsgs, c.MaxUserBytes, c.MaxCollRounds, c.MaxCollMsgs = mu, mb, mr, mm
			c.Collectives = post.CollectiveCalls - pre.CollectiveCalls
			c.MaxGhostNeighbors, c.MaxGhostMsgs, c.AllreduceRounds = gn, gm, ar
			if h := s.solver.GMGH; h != nil {
				c.Precond, c.GMGLevels, c.GMGCoarseRanks, c.Degenerate = "gmg", h.NumLevels(), h.CoarseRanks(), h.Degenerate()
			}
		}
	})
	return c
}

// checkGMGAtScale asserts what every case of the ladder must show: the
// real multigrid hierarchy (not a per-rank fallback) with its coarsest
// solve on a strict rank subset, ghost exchanges that message only
// neighbours, and one Allreduce in exactly ceil(log2 P) rounds.
func checkGMGAtScale(t *testing.T, c scalingCase) {
	t.Helper()
	if c.Precond != "gmg" || c.Degenerate || c.GMGLevels < 2 {
		t.Errorf("%s P=%d: want a non-degenerate gmg hierarchy, got %+v", c.Series, c.Ranks, c)
	}
	if c.Ranks > 16 && (c.GMGCoarseRanks < 1 || c.GMGCoarseRanks >= c.Ranks) {
		t.Errorf("%s P=%d: coarse solve on %d ranks, want a strict subset", c.Series, c.Ranks, c.GMGCoarseRanks)
	}
	if c.MaxGhostMsgs > c.MaxGhostNeighbors || c.MaxGhostNeighbors >= c.Ranks-1 {
		t.Errorf("%s P=%d: ghost exchange not sparse: %d msgs, %d neighbours", c.Series, c.Ranks, c.MaxGhostMsgs, c.MaxGhostNeighbors)
	}
	if c.AllreduceRounds != sim.CeilLog2(c.Ranks) {
		t.Errorf("%s P=%d: Allreduce took %d rounds, want %d", c.Series, c.Ranks, c.AllreduceRounds, sim.CeilLog2(c.Ranks))
	}
	if c.MinresIters <= 0 || c.MinresIters >= 3000 {
		t.Errorf("%s P=%d: MINRES took %d iterations: not a converged bounded solve", c.Series, c.Ranks, c.MinresIters)
	}
}

// TestShellSolve256Short is the -short smoke of the strong series at
// P = 256: the fixed 1536-element shell, a ghost neighbourhood under P/4,
// and at most 2·ceil(log2 P) + 2 collective rounds per collective over
// the whole solve (vector reductions pay two tree traversals).
func TestShellSolve256Short(t *testing.T) {
	const p = 256
	c := runScalingCase("strong", p, scalingShellConfig(1536, 2, 1e-5))
	if c.Elements != 1536 || c.Nodes == 0 {
		t.Fatalf("unexpected mesh: %+v", c)
	}
	checkGMGAtScale(t, c)
	if c.MaxGhostNeighbors >= p/4 {
		t.Errorf("ghost neighbourhood of %d ranks is not sparse at P=%d", c.MaxGhostNeighbors, p)
	}
	if lim := (2*sim.CeilLog2(p) + 2) * c.Collectives; c.MaxCollRounds > lim {
		t.Errorf("solve spent %d collective rounds on some rank over %d collectives (limit %d)",
			c.MaxCollRounds, c.Collectives, lim)
	}
}

// TestWeakScalingGMG256Short is the -short smoke of the weak series: 6
// elements per rank at P = 256, the floor of the weak ladder.
func TestWeakScalingGMG256Short(t *testing.T) {
	const p, per = 256, 6
	target := int64(per * p)
	c := runScalingCase("weak", p, scalingShellConfig(target, weakMaxLevel(target), 1e-5))
	if c.Elements != target {
		t.Fatalf("weak case has %d elements, want %d", c.Elements, target)
	}
	checkGMGAtScale(t, c)
}

// TestScalingLadderMatchesRecord reruns the Small ladder — strong
// P ∈ {16, 64, 256} on 1536 elements, weak P ∈ {64, 256} at 24 elements
// per rank — and requires BENCH_scaling.json byte for byte: every field
// is an exact counter, so any move is a program change to explain (and
// the record to regenerate from the JSON this test prints).
func TestScalingLadderMatchesRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("the P = 16..256 ladder runs only without -short")
	}
	const tol = 1e-6
	var cases []scalingCase
	for _, p := range []int{16, 64, 256} {
		cases = append(cases, runScalingCase("strong", p, scalingShellConfig(1536, 2, tol)))
	}
	for _, p := range []int{64, 256} {
		target := 24 * int64(p)
		cases = append(cases, runScalingCase("weak", p, scalingShellConfig(target, weakMaxLevel(target), tol)))
	}
	for _, c := range cases {
		checkGMGAtScale(t, c)
	}
	// Iteration counts are P-independent: the strong P = 256 solve within
	// ±10% of P = 16.
	if it16, it256 := cases[0].MinresIters, cases[2].MinresIters; 10*abs(it256-it16) > it16+9 {
		t.Errorf("MINRES iterations not P-independent: %d at P=16 vs %d at P=256", it16, it256)
	}
	got, err := json.MarshalIndent(struct {
		Cases []scalingCase `json:"cases"`
	}{cases}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_scaling.json")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("the ladder no longer reproduces BENCH_scaling.json; this run:\n%s", got)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
