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
// move.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rhea/internal/sim"
)

// refs holds the reference diagnostics, logged from rank-1 runs of
// each registry case (regenerate via the t.Logf in TestBenchCasesPinned).
var refs = map[string]struct {
	Nu, Vrms float64
	Elems    int64
}{
	"box":    {32.1145641787, 48.5525967081, 190},
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
	for _, c := range Cases() {
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
			t.Logf("%s ranks %d: Nu %.10f Vrms %.10f elems %d iters %d",
				c.Name, p, res.Nu, res.Vrms, res.Elements, res.Iters)
			if res.Err != nil {
				t.Fatalf("%s ranks %d: %v", c.Name, p, res.Err)
			}
			if res.Elements != ref.Elems {
				t.Errorf("%s ranks %d: %d global elements, reference pins %d", c.Name, p, res.Elements, ref.Elems)
			}
			if key := fmt.Sprintf("%s/%d", c.Name, p); record != nil && strings.HasPrefix(c.Name, "bunge") {
				row, ok := record[key]
				delete(record, key)
				got = append(got, bungeRecord{Case: c.Name, Desc: c.Desc, Ranks: p,
					Elements: res.Elements, Iters: res.Iters, Nu: res.Nu, Vrms: res.Vrms})
				if !ok || row.Elements != res.Elements || row.Iters != res.Iters ||
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
