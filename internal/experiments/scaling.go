package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"rhea/internal/perfmodel"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// ScalingCase holds one measured weak/strong-scaling run of the shell
// convection Stokes solve, with the per-rank communication maxima that
// prove the runtime's message counts are O(neighbors) per exchange and
// O(log2 P) rounds per collective.
type ScalingCase struct {
	Series      string `json:"series"` // "strong" or "weak"
	Ranks       int    `json:"ranks"`
	Elements    int64  `json:"elements"`
	Nodes       int64  `json:"nodes"`
	MinresIters int    `json:"minres_iters"`
	// WallS is the straggler rank's wall-clock over the Stokes solve
	// window alone; TotalS is the whole case including mesh build,
	// adaptation and solver setup.
	WallS  float64 `json:"wall_s"`
	TotalS float64 `json:"total_s"`

	// Per-rank maxima over the Stokes solve window.
	MaxUserMsgs   int   `json:"max_user_msgs"`   // user p2p messages (ghost exchanges)
	MaxUserBytes  int64 `json:"max_user_bytes"`  // bytes in those messages
	MaxCollRounds int   `json:"max_coll_rounds"` // collective tree-transport rounds
	MaxCollMsgs   int   `json:"max_coll_msgs"`   // collective tree-transport messages
	Collectives   int   `json:"collectives"`     // collective ops (rank 0)

	// One standalone scalar-node ghost exchange on the final mesh.
	MaxGhostNeighbors int `json:"max_ghost_neighbors"`       // neighbor ranks in the plan
	MaxGhostMsgs      int `json:"max_ghost_msgs_per_gather"` // user msgs in one Gather

	// Measured rounds of a single scalar Allreduce at this P
	// (= ceil(log2 P) for the Bruck transport).
	AllreduceRounds int `json:"allreduce_rounds"`

	// Ranger-model times of the straggler rank's measured ledger: ModelS
	// charges modeled per-element compute plus the exactly counted
	// communication (rounds and bytes — no assumed topology); ModelCommS
	// is the communication share alone.
	ModelS     float64 `json:"model_s"`
	ModelCommS float64 `json:"model_comm_s"`
	// Refit three-term law evaluated at (Elements, Ranks). The fit runs
	// against the measured WallS — fitting the model's own predictions
	// would just echo ModelS back (a former bug in this figure).
	FitS float64 `json:"fit_s,omitempty"`

	// Velocity preconditioner identity: the figure's claim is that GMG
	// (not a per-rank fallback) preconditions the solve at every P, with
	// the coarsest level agglomerated onto GMGCoarseRanks ranks.
	Precond        string `json:"precond"`
	GMGLevels      int    `json:"gmg_levels,omitempty"`
	GMGCoarseRanks int    `json:"gmg_coarse_ranks,omitempty"`
	Degenerate     bool   `json:"degenerate,omitempty"`
}

// flopsPerElemIter is the modeled per-element cost of one MINRES
// iteration (matrix-free Stokes apply plus smoothing) used to convert
// the straggler's element load into Ranger compute time.
const flopsPerElemIter = 4000.0

// scalingShellConfig is the pinned scaling scenario: the FigShell physics
// on a base-2 cubed-sphere shell (1536 elements uniform — enough that
// every rank owns elements at P=256), fully matrix-free with GMG
// velocity preconditioning. The GMG coarse levels agglomerate onto
// shrinking rank subsets and the coarsest solve runs distributed on its
// subcommunicator (see internal/gmg), so no rank ever holds replicated
// global state — the paper's preconditioner, not a per-rank fallback,
// is what the figure measures at hundreds of ranks.
func scalingShellConfig(target int64, maxLvl uint8, tol float64) rhea.Config {
	base := uint8(2)
	initAdapt := -1 // uniform base mesh, no initial adaptation
	if maxLvl > base {
		initAdapt = 1
	}
	return rhea.Config{
		Shell: true,
		Ra:    1e4,
		InitialTemp: func(x [3]float64) float64 {
			rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
			cond := (2 - rad) / rad
			d2 := (x[0]-1.2)*(x[0]-1.2) + x[1]*x[1] + (x[2]-0.6)*(x[2]-0.6)
			return cond + 0.3*math.Exp(-d2/0.05)
		},
		Visc:        rhea.TemperatureDependent(1, 1),
		BaseLevel:   base,
		MinLevel:    base,
		MaxLevel:    maxLvl,
		TargetElems: target,
		InitAdapt:   initAdapt,
		AdaptEvery:  4,
		Picard:      1,
		MinresTol:   tol,
		MinresMax:   3000,
		MatrixFree:  true,
		Precond:     stokes.PrecondGMG,
	}
}

// runScalingCase executes one shell convection Stokes solve at p
// simulated ranks and collects wall time plus per-rank communication
// maxima for the solve window, a standalone ghost exchange, and a single
// Allreduce.
func runScalingCase(series string, p int, cfg rhea.Config) ScalingCase {
	c := ScalingCase{Series: series, Ranks: p}
	start := time.Now()
	sim.Run(p, func(r *sim.Rank) {
		s := rhea.New(r, cfg)
		r.Barrier()
		pre := r.Stats()
		solveStart := time.Now()
		s.SolveStokes()
		solveS := time.Since(solveStart).Seconds()
		post := r.Stats()

		// Standalone ghost exchange over the scalar node layout of the
		// final mesh, through the mesh's own plan: Gather messages are
		// O(neighbors).
		lay, gx := s.Mesh.Layout(), s.Mesh.GX
		owned := make([]float64, lay.Local())
		ghost := make([]float64, gx.NumGhosts())
		gpre := r.Stats()
		gx.Gather(owned, ghost)
		gpost := r.Stats()

		apre := r.Stats()
		r.Allreduce(1, sim.OpSum)
		apost := r.Stats()

		// Reduce the per-rank measurements (collective, outside every
		// measured window).
		maxI := func(v int) int { return int(r.Allreduce(float64(v), sim.OpMax)) }
		st := s.Mesh.GlobalStats()
		it := s.LastMinres().Iterations
		mu := maxI(post.UserMsgs - pre.UserMsgs)
		mb := int64(r.Allreduce(float64(post.UserBytes-pre.UserBytes), sim.OpMax))
		mr := maxI(post.CollRounds - pre.CollRounds)
		mm := maxI(post.CollMsgs - pre.CollMsgs)
		gn := maxI(gx.NumNeighbors())
		gm := maxI(gpost.UserMsgs - gpre.UserMsgs)
		ar := maxI(apost.CollRounds - apre.CollRounds)
		flops := float64(len(s.Mesh.Leaves)) * float64(it) * flopsPerElemIter
		ledger := perfmodel.FromStats(sim.Stats{
			UserMsgs:           post.UserMsgs - pre.UserMsgs,
			UserBytes:          post.UserBytes - pre.UserBytes,
			CollectiveCalls:    post.CollectiveCalls - pre.CollectiveCalls,
			CollTransportBytes: post.CollTransportBytes - pre.CollTransportBytes,
			CollRounds:         post.CollRounds - pre.CollRounds,
		}, flops)
		mts := r.Allreduce(perfmodel.Ranger.Time(ledger, p), sim.OpMax)
		ledger.Flops = 0
		mct := r.Allreduce(perfmodel.Ranger.Time(ledger, p), sim.OpMax)
		mws := r.Allreduce(solveS, sim.OpMax)
		ps := s.PrecondStats()
		if r.ID() == 0 {
			c.Elements = st.Elements
			c.Nodes = st.Nodes
			c.MinresIters = it
			c.MaxUserMsgs = mu
			c.MaxUserBytes = mb
			c.MaxCollRounds = mr
			c.MaxCollMsgs = mm
			c.Collectives = post.CollectiveCalls - pre.CollectiveCalls
			c.MaxGhostNeighbors = gn
			c.MaxGhostMsgs = gm
			c.AllreduceRounds = ar
			c.ModelS = mts
			c.ModelCommS = mct
			c.WallS = mws
			c.Precond = ps.Kind
			c.GMGLevels = ps.GMGLevels
			c.GMGCoarseRanks = ps.CoarseRanks
			c.Degenerate = ps.Degenerate
		}
	})
	c.TotalS = time.Since(start).Seconds()
	return c
}

// FigScaling is the weak/strong scaling figure for the distributed GMG
// Stokes solve at hundreds of simulated ranks, with the default weak
// series (24 elements per rank, up to P=256 at Small scale and P=512 at
// Full scale). See FigScalingOpts.
func FigScaling(scale Scale) (*Table, []ScalingCase, perfmodel.Fit) {
	return FigScalingOpts(scale, 24, 0)
}

// weakMaxLevel picks the shallowest refinement ceiling whose fully
// refined base-2 shell (1536*8^(l-2) elements) covers the weak target.
func weakMaxLevel(target int64) uint8 {
	lvl, cap := uint8(2), int64(1536)
	for cap < target && lvl < 6 {
		lvl++
		cap *= 8
	}
	return lvl
}

// FigScalingOpts runs the scaling figure: the shell convection Stokes
// solve, GMG-preconditioned with rank-subset coarse levels, at P in
// {16, 64, 256} on a fixed 1536-element mesh (strong) and at weakPer
// elements per rank with P in {64, 256, ...} doubling up to weakMax
// (weak; weakMax 0 defaults to 256, or 512 at Full scale). Per-rank
// message counts and collective rounds are measured exactly, and the
// three-term perfmodel law T = A(N/P) + B(N/P)^(2/3) + C log2(P) is
// refit against the measured wall times of all cases.
func FigScalingOpts(scale Scale, weakPer int64, weakMax int) (*Table, []ScalingCase, perfmodel.Fit) {
	ranks := []int{16, 64, 256}
	tol := 1e-6
	if weakPer <= 0 {
		weakPer = 24
	}
	if weakMax <= 0 {
		weakMax = 256
		if scale == Full {
			weakMax = 512
		}
	}

	var cases []ScalingCase
	for _, p := range ranks {
		cases = append(cases, runScalingCase("strong", p, scalingShellConfig(1536, 2, tol)))
	}
	for p := 64; p <= weakMax; p *= 2 {
		if p != 64 && p != 256 && p < 512 {
			continue // weak series: 64, 256, then every doubling past 256
		}
		target := weakPer * int64(p)
		cases = append(cases, runScalingCase("weak", p, scalingShellConfig(target, weakMaxLevel(target), tol)))
	}

	// Refit the three-term law against the measured solve wall times of
	// every case, in relative error — the times span orders of magnitude
	// across the ladder. (An earlier revision fit the Ranger model's own
	// predictions, which made fit_s echo model_s bit-for-bit — a fit
	// with zero residual and zero content.)
	var samples []perfmodel.Sample
	for _, c := range cases {
		samples = append(samples, perfmodel.Sample{N: c.Elements, P: c.Ranks, T: c.WallS})
	}
	fit := perfmodel.FitSamplesRel(samples)
	for i := range cases {
		cases[i].FitS = fit.Predict(cases[i].Elements, cases[i].Ranks)
	}

	t := &Table{
		Title: "scaling: shell convection Stokes solve, distributed GMG + tree collectives + sparse neighbor exchange",
		Header: []string{"series", "ranks", "elements", "nodes", "minres", "wall s",
			"msg/rank", "rounds/rank", "ghost nbrs", "ar rounds",
			"gmg lv", "coarse P", "model s", "fit s"},
		Notes: []string{
			"msg/rank: max per-rank user p2p messages over the whole solve (O(neighbors) per exchange, not O(P))",
			"rounds/rank: max per-rank collective tree rounds; ar rounds = one Allreduce = ceil(log2 P)",
			"gmg lv / coarse P: GMG hierarchy depth and the agglomerated rank count of its distributed coarsest solve",
			fmt.Sprintf("perfmodel refit on measured wall s (relative LSQ): A=%.3e B=%.3e C=%.3e (per-element, surface, collective-depth)",
				fit.A, fit.B, fit.C),
			"wall s: straggler wall-clock of the solve window; the host oversubscribes cores (ranks are goroutines), so trends carry meaning, absolute times do not",
			"model s (Ranger, measured rounds/bytes) is reported for reference",
		},
	}
	for _, c := range cases {
		if c.Degenerate {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"WARNING: %s P=%d ran with a degenerate GMG hierarchy (coarsening stalled) — not the paper's preconditioner",
				c.Series, c.Ranks))
		}
	}
	for _, c := range cases {
		t.Rows = append(t.Rows, []string{
			c.Series, iN(c.Ranks), i64(c.Elements), i64(c.Nodes), iN(c.MinresIters),
			f2(c.WallS), iN(c.MaxUserMsgs), iN(c.MaxCollRounds), iN(c.MaxGhostNeighbors),
			iN(c.AllreduceRounds), iN(c.GMGLevels), iN(c.GMGCoarseRanks),
			fmt.Sprintf("%.4f", c.ModelS), fmt.Sprintf("%.4f", c.FitS),
		})
	}
	return t, cases, fit
}

// ScalingJSON is the machine-readable benchmark record written by
// `alpsbench -fig scaling -json`: per-P solve times and communication
// maxima plus the refit perfmodel coefficients, so the performance
// trajectory is tracked across PRs.
type ScalingJSON struct {
	Generated string        `json:"generated"`
	Cases     []ScalingCase `json:"cases"`
	Fit       perfmodel.Fit `json:"fit"`
}

// WriteScalingJSON writes the scaling record to path.
func WriteScalingJSON(path string, cases []ScalingCase, fit perfmodel.Fit) error {
	rec := ScalingJSON{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Cases:     cases,
		Fit:       fit,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
