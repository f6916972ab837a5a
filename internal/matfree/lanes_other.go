// Code generated by gen_lanes.go; DO NOT EDIT.

//go:build !amd64

package matfree

import (
	"rhea/internal/fem"
	"rhea/internal/mesh"
)

// gather4 and scatter4 are AVX2 assembly, which this architecture does
// not have: New picks them only where fem.HasAVX2, never here.
func gather4(rows *[4][8]int32, hang *mesh.Hang, src *float64, xe *fem.Lanes4) {
	panic("matfree: gather4 needs AVX2")
}

func scatter4(rows *[4][8]int32, hang *mesh.Hang, ye *fem.Lanes4, dst *float64) {
	panic("matfree: scatter4 needs AVX2")
}

// checkLanesLayout has no assembly to check on this architecture.
func checkLanesLayout() {}
