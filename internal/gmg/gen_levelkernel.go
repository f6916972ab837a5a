//go:build ignore

// gen_levelkernel writes levelkernel.go, the element loops of the
// multigrid level operator at one and three fields per node. Run it with
// `go generate ./internal/gmg`.
//
// A level kernel is a symmetric 8x8 matrix kept as its packed upper
// triangle (fem.SymKernel), so entry (a, b) sits at an offset that is not
// an affine function of a and b. The loops are written out row after row
// with those offsets as constants, each row scattered as soon as it is
// summed; collecting the eight rows first and scattering them in a second
// loop ran 10-15% slower at width 3. Each row still sums b = 0..7 in
// ascending order from zero, so the result is bit for bit the full
// matrix's.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

var buf bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&buf, format+"\n", args...) }

// off returns the packed offset of entry (a, b), as fem.SymIndex has it.
func off(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return 8*a - a*(a-1)/2 + b - a
}

func main() {
	p("// Code generated by gen_levelkernel.go; DO NOT EDIT.")
	p("")
	p("package gmg")
	p("")
	p(`// applyElems1 accumulates acc += sum_e C_e^T (eta_e K_e) C_e x for one
// field in slot space: gather the eight corner values, multiply by the
// scaled kernel, scatter. An independent corner reads its slot straight
// from the mesh's corner row (C_e selects it: weight exactly 1, so
// skipping the multiply changes no bit); a hanging one runs its masters
// from the mesh's Hang table. Row a of K times xe is summed from zero in
// corner order, reading the packed triangle at fixed offsets, scaled by
// eta and scattered.`)
	p("func (lv *level) applyElems1(x, acc []float64) {")
	p("rows, hang := lv.mesh.Rows, lv.mesh.Hang")
	p("for ei := range rows {")
	p("row := &rows[ei]")
	p("var xe [8]float64")
	p("for a := 0; a < 8; a++ {")
	p("if s := row[a]; s >= 0 {")
	p("xe[a] = x[s]")
	p("} else {")
	p("xe[a] = hang[^s].Value(x)")
	p("}")
	p("}")
	p("K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]")
	for a := 0; a < 8; a++ {
		p("{")
		p("var s float64")
		for b := 0; b < 8; b++ {
			p("s += K[%d] * xe[%d]", off(a, b), b)
		}
		p("s *= eta")
		p("if r := row[%d]; r >= 0 {", a)
		p("acc[r] += s")
		p("} else {")
		p("scatterHang1(acc, &hang[^r], s)")
		p("}")
		p("}")
	}
	p("}")
	p("}")
	p("")
	p(`// applyElems3 is applyElems1 for three interleaved fields: every corner
// gathers three values and every kernel entry multiplies all three, so
// the corner rows and kernels are streamed once for the whole velocity
// block. Per field it is the same sum as applyElems1's, in the same
// order.`)
	p("func (lv *level) applyElems3(x, acc []float64) {")
	p("rows, hang := lv.mesh.Rows, lv.mesh.Hang")
	p("for ei := range rows {")
	p("row := &rows[ei]")
	p("var xe [8][3]float64")
	p("for a := 0; a < 8; a++ {")
	p("if s := row[a]; s >= 0 {")
	p("p := x[3*int(s) : 3*int(s)+3]")
	p("xe[a] = [3]float64{p[0], p[1], p[2]}")
	p("continue")
	p("}")
	p("h := &hang[^row[a]]")
	p("w := h.W()")
	p("var v0, v1, v2 float64")
	p("for k := 0; k < int(h.N); k++ {")
	p("p := x[3*int(h.Slot[k]) : 3*int(h.Slot[k])+3]")
	p("v0 += w * p[0]")
	p("v1 += w * p[1]")
	p("v2 += w * p[2]")
	p("}")
	p("xe[a] = [3]float64{v0, v1, v2}")
	p("}")
	p("K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]")
	for a := 0; a < 8; a++ {
		p("{")
		p("var s0, s1, s2, k float64")
		for b := 0; b < 8; b++ {
			p("k = K[%d]", off(a, b))
			for c := 0; c < 3; c++ {
				p("s%d += k * xe[%d][%d]", c, b, c)
			}
		}
		p("s0 *= eta")
		p("s1 *= eta")
		p("s2 *= eta")
		p("if r := row[%d]; r >= 0 {", a)
		p("p := acc[3*int(r) : 3*int(r)+3]")
		p("p[0] += s0")
		p("p[1] += s1")
		p("p[2] += s2")
		p("} else {")
		p("scatterHang3(acc, &hang[^r], s0, s1, s2)")
		p("}")
		p("}")
	}
	p("}")
	p("}")

	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatalf("formatting generated code: %v\n%s", err, buf.Bytes())
	}
	if err := os.WriteFile("levelkernel.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
