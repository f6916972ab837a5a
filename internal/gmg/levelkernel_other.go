// Code generated by gen_levelkernel.go; DO NOT EDIT.

//go:build !amd64

package gmg

// applyElems3 runs applyRange3 over every element.
func (lv *level) applyElems3(x, acc []float64) { lv.applyRange3(x, acc, 0, len(lv.mesh.Rows)) }
