package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// refs.json pins the final Nusselt number and rms velocity of each
// workload at the default seed, for the full schedule at refSeconds and
// for the quick schedule. The tolerance is loose enough for an
// algebraically equivalent Krylov recurrence and tight enough to catch
// wrong physics.
//
//go:embed refs.json
var refsJSON []byte

const (
	refSeed = 1
	refTol  = 1e-4
)

type ref struct {
	Nu   float64 `json:"nu"`
	Vrms float64 `json:"vrms"`
}

func refKey(workload string, quick bool) string {
	if quick {
		return workload + "/quick"
	}
	return workload
}

// checkRefs compares the final diagnostics with the pinned reference (one
// op) when this run is the one the reference was pinned for, and records
// rhea.nu_relerr.
func (out *outcome) checkRefs(workload string, o options, nu, vrms float64) {
	if o.seed != refSeed || (!o.quick && o.seconds != refSeconds) {
		out.notes = append(out.notes, fmt.Sprintf("no reference check: references are pinned at -seed %d -seconds %d", refSeed, refSeconds))
		return
	}
	var refs map[string]ref
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		out.op("reference", false, "refs.json: "+err.Error())
		return
	}
	want, ok := refs[refKey(workload, o.quick)]
	if !ok {
		out.op("reference", false, "refs.json has no entry "+refKey(workload, o.quick))
		return
	}
	eNu, eV := relErr(nu, want.Nu), relErr(vrms, want.Vrms)
	out.set("rhea.nu_relerr", eNu)
	out.op("reference", eNu <= refTol && eV <= refTol,
		fmt.Sprintf("Nu %.10g (pinned %.10g, rel %.2g), Vrms %.10g (pinned %.10g, rel %.2g), tolerance %g", nu, want.Nu, eNu, vrms, want.Vrms, eV, refTol))
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
