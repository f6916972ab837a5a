package bench

// Pinned reference tables for the benchmark registry. Three layers of
// pinning, in decreasing strictness:
//
//  1. Run-to-run at a fixed rank count the diagnostics are bitwise
//     reproducible (every reduction is a deterministic rank-order
//     fold) — asserted via math.Float64bits.
//  2. Across rank counts the fold order changes, so bitwise equality
//     is impossible by construction; the diagnostics must instead
//     agree to reduction rounding (relative 1e-7, measured headroom
//     ~50x) and the global element counts must match exactly.
//  3. Rank-1 values are pinned against the reference table below
//     (relative 1e-9): any drift means the physics changed.
//
// Without -short the Bunge rows are also held to the committed record
// BENCH_bunge.json at every rank count: elements and MINRES iterations
// exactly, Nu and Vrms to relative 1e-9. On a mismatch the test logs the
// record it got, which is how the file is regenerated after an explained
// move. Every row logs its relative Nu and Vrms drift from the reference
// below and from its record, so a drift inside the tolerances still shows
// in -v output.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// refs holds the reference diagnostics, logged from rank-1 runs of
// each registry case (regenerate via the t.Logf in TestBenchCasesPinned).
// "box" was re-pinned when transport on bricks became the separable
// kernel, whose sums run in a different order: Nu and Vrms moved by
// 1.7e-9 relative (from 32.1145641787 / 48.5525967081), the size of the
// case's spread over 1, 2 and 4 ranks (2.1e-9 before, 2.5e-9 after) and
// far inside crossRelTol. It was re-pinned again when a brick's element
// matrices became the isoparametric formulas on the brick's ElemGeom,
// which round differently from the closed forms they replaced: Nu and
// Vrms moved by 3.4e-9 and 3.1e-9 relative (from 32.1145641250 /
// 48.5525966274), the size of the case's rounding band over 1 to 6 ranks
// (2.9e-9 before, 3.5e-9 after) and far inside crossRelTol. It was
// re-pinned a third time when the assembled coupled CSR left the solver
// and the case's solves went matrix-free, whose element sums round
// differently: Nu and Vrms moved by 3.2e-9 and 3.4e-9 relative (from
// 32.1145642327 / 48.5525967802), the size of the case's spread over 1,
// 2 and 4 ranks (3.1e-9 after), with 190 elements and 113 iterations
// unchanged. It was re-pinned a fourth time when the velocity-block
// preconditioner went AMG → GMG (the algebraic multigrid left the
// repository): MINRES stops at the same relative tolerance 1e-9 with a
// different preconditioner, so the solutions differ inside it. Nu and
// Vrms moved by 1.3e-9 and 1.5e-9 relative (from 32.1145641287 /
// 48.5525966166), inside the case's rank spread and far inside
// crossRelTol; the element count is 190 after every cycle, as before,
// and the final MINRES count went 113 → 117 (119 at 4 ranks).
var refs = map[string]struct {
	Nu, Vrms float64
	Elems    int64
}{
	"box":    {32.1145641703, 48.5525966890, 190},
	"shell":  {35.9954083191, 74.1663000266, 360},
	"bunge1": {116.4968214274, 214.9813661638, 402},
	"bunge2": {125.5047921526, 237.1020876622, 402},
	"bunge3": {3462.3066377427, 6438.4760747797, 374},
	"bunge4": {1035.3853661070, 1965.2808090459, 374},
}

const (
	refRelTol   = 1e-9 // rank-1 vs pinned reference
	crossRelTol = 1e-7 // across rank counts
)

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), 1)
}

// bungeRecord is one row of BENCH_bunge.json.
type bungeRecord struct {
	Case     string  `json:"case"`
	Desc     string  `json:"desc"`
	Ranks    int     `json:"ranks"`
	Elements int64   `json:"elements"`
	Iters    int     `json:"minres_iters"`
	Nu       float64 `json:"nu"`
	Vrms     float64 `json:"vrms"`
}

// readBungeRecord loads BENCH_bunge.json keyed by "case/ranks".
func readBungeRecord(t *testing.T) map[string]bungeRecord {
	buf, err := os.ReadFile("../../BENCH_bunge.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Cases []bungeRecord }
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bungeRecord{}
	for _, r := range rec.Cases {
		rows[fmt.Sprintf("%s/%d", r.Case, r.Ranks)] = r
	}
	return rows
}

// Run executes one case on the given communicator (collective): the
// pinned cycle schedule of RunCycle rounds (solve, AdaptEvery advection
// steps, adapt) followed by a final solve, returning the diagnostics the
// reference tables pin. The run is deterministic per rank count; across
// rank counts the diagnostics agree to reduction rounding.
func Run(r *sim.Rank, c Case) Result {
	s := rhea.New(r, c.Config())
	for i := 0; i < c.Cycles; i++ {
		s.RunCycle()
	}
	return Final(s)
}

// TestBenchCasesPinned runs every registry case on 1, 2 and 4 simulated
// ranks and checks convergence, the exact global element count, the
// pinned rank-1 references, cross-rank agreement and, without -short, the
// committed Bunge record.
func TestBenchCasesPinned(t *testing.T) {
	ranks := []int{1, 2, 4}
	var record map[string]bungeRecord
	if !testing.Short() {
		record = readBungeRecord(t)
	}
	var got []bungeRecord
	mismatch := false
	for _, c := range registry {
		if testing.Short() && c.Name != "bunge1" && c.Name != "shell" {
			continue
		}
		ref, ok := refs[c.Name]
		if !ok {
			t.Fatalf("case %s has no reference entry", c.Name)
		}
		var nu1, vrms1 float64
		for _, p := range ranks {
			c, p := c, p
			var res Result
			sim.Run(p, func(r *sim.Rank) {
				out := Run(r, c)
				if r.ID() == 0 {
					res = out
				}
			})
			key := fmt.Sprintf("%s/%d", c.Name, p)
			row, inRecord := record[key]
			drift := fmt.Sprintf("drift from refs Nu %.1e Vrms %.1e", relErr(res.Nu, ref.Nu), relErr(res.Vrms, ref.Vrms))
			if inRecord {
				drift += fmt.Sprintf(", from BENCH_bunge.json Nu %.1e Vrms %.1e", relErr(res.Nu, row.Nu), relErr(res.Vrms, row.Vrms))
			}
			t.Logf("%s ranks %d: Nu %.10f Vrms %.10f elems %d iters %d; %s",
				c.Name, p, res.Nu, res.Vrms, res.Elements, res.Iters, drift)
			if res.Err != nil {
				t.Fatalf("%s ranks %d: %v", c.Name, p, res.Err)
			}
			if res.Elements != ref.Elems {
				t.Errorf("%s ranks %d: %d global elements, reference pins %d", c.Name, p, res.Elements, ref.Elems)
			}
			if record != nil && strings.HasPrefix(c.Name, "bunge") {
				delete(record, key)
				got = append(got, bungeRecord{Case: c.Name, Desc: c.Desc, Ranks: p,
					Elements: res.Elements, Iters: res.Iters, Nu: res.Nu, Vrms: res.Vrms})
				if !inRecord || row.Elements != res.Elements || row.Iters != res.Iters ||
					relErr(res.Nu, row.Nu) > refRelTol || relErr(res.Vrms, row.Vrms) > refRelTol {
					mismatch = true
					t.Errorf("%s: run (elements %d, iters %d, Nu %.12g, Vrms %.12g) does not match BENCH_bunge.json %+v",
						key, res.Elements, res.Iters, res.Nu, res.Vrms, row)
				}
			}
			if p == 1 {
				nu1, vrms1 = res.Nu, res.Vrms
				if relErr(res.Nu, ref.Nu) > refRelTol || relErr(res.Vrms, ref.Vrms) > refRelTol {
					t.Errorf("%s: pinned references moved: Nu %.10f (want %.10f), Vrms %.10f (want %.10f)",
						c.Name, res.Nu, ref.Nu, res.Vrms, ref.Vrms)
				}
				continue
			}
			if relErr(res.Nu, nu1) > crossRelTol || relErr(res.Vrms, vrms1) > crossRelTol {
				t.Errorf("%s ranks %d: diagnostics differ from 1-rank run beyond reduction rounding: Nu %.12f vs %.12f, Vrms %.12f vs %.12f",
					c.Name, p, res.Nu, nu1, res.Vrms, vrms1)
			}
		}
	}
	for key := range record {
		t.Errorf("BENCH_bunge.json row %s was not run", key)
	}
	if mismatch {
		buf, _ := json.MarshalIndent(struct {
			Cases []bungeRecord `json:"cases"`
		}{got}, "", "  ")
		t.Logf("this run's record:\n%s", buf)
	}
}

// TestBenchRunToRunBitwise runs one free-slip Bunge case twice at a
// fixed rank count and asserts the diagnostics are bit-identical —
// the determinism layer the checkpoint/restart machinery relies on.
func TestBenchRunToRunBitwise(t *testing.T) {
	c, _ := Lookup("bunge2")
	var nu, vrms [2]uint64
	for trial := 0; trial < 2; trial++ {
		trial := trial
		sim.Run(2, func(r *sim.Rank) {
			out := Run(r, c)
			if r.ID() == 0 {
				nu[trial] = math.Float64bits(out.Nu)
				vrms[trial] = math.Float64bits(out.Vrms)
			}
		})
	}
	if nu[0] != nu[1] || vrms[0] != vrms[1] {
		t.Errorf("run-to-run diagnostics are not bitwise stable: Nu %016x vs %016x, Vrms %016x vs %016x",
			nu[0], nu[1], vrms[0], vrms[1])
	}
}

// TestRegistryConfigsValidate: every registry case is a config rhea can
// run, so cmd/rhea and the scenario service start from a valid one.
func TestRegistryConfigsValidate(t *testing.T) {
	for _, name := range Names() {
		c, _ := Lookup(name)
		if err := c.Config().Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
