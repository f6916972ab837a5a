//go:build ignore

// gen_stokesapply writes stokesapply.go, the straight-line body of
// (*ElemGeom).StokesApply. Run it with `go generate ./internal/fem`.
//
// The kernel is written out with constant indices and named locals
// because that is the form the compiler turns into the fastest code: the
// same algorithm as loops, with computed shifts, or through small helper
// functions (which are not inlined) runs 1.5-2x slower.
//
// Notation. Corners c and Gauss points q are numbered in z-order
// (bit 0 = x, bit 1 = y, bit 2 = z). The 1D Q1 shape functions take the
// values B[t][s] = ga (t == s) or gb (t != s) at the two Gauss points t,
// and their derivatives are -1 and +1. A derivative along reference axis
// d therefore does not vary along d: it is the difference across the four
// element edges parallel to d, interpolated over the two other axes to
// the four Gauss lines parallel to d. The lines (and edges) parallel to d
// are numbered e = bit(o0) + 2 bit(o1) for the other axes o0 < o1.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

var buf bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&buf, format+"\n", args...) }

func bit(n, axis int) int { return n >> axis & 1 }

// others returns the two reference axes other than d, in increasing order.
func others(d int) (int, int) {
	switch d {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	}
	return 0, 1
}

// line returns the index of the Gauss line (or edge) parallel to d
// through point (or corner) n.
func line(n, d int) int {
	o0, o1 := others(d)
	return bit(n, o0) + 2*bit(n, o1)
}

// at returns the corner (or point) on line e parallel to d with
// coordinate s along d.
func at(e, d, s int) int {
	o0, o1 := others(d)
	return bit(e, 0)<<o0 | bit(e, 1)<<o1 | s<<d
}

// w returns the 1D interpolation weight B[t][s].
func w(t, s int) string {
	if t == s {
		return "ga"
	}
	return "gb"
}

// names returns prefix0 .. prefix{n-1}.
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// tuple writes the assignment "lhs[0], lhs[1], ... op rhs[0], rhs[1], ...".
func tuple(lhs []string, op string, rhs []string) {
	p("%s %s %s", strings.Join(lhs, ", "), op, strings.Join(rhs, ", "))
}

// interp2 assigns out[t0+2t1] = sum_{s0,s1} B[t0][s0] B[t1][s1] in[s0+2s1]
// as two 1D passes through the temporaries a0..a3. B is symmetric, so
// the same pass is its own transpose: it tests against the shape
// functions as well.
func interp2(in, out []string, op string) {
	var a, o []string
	for s1 := 0; s1 < 2; s1++ {
		for t0 := 0; t0 < 2; t0++ {
			a = append(a, fmt.Sprintf("%s*%s + %s*%s", w(t0, 0), in[2*s1], w(t0, 1), in[1+2*s1]))
		}
	}
	for t1 := 0; t1 < 2; t1++ {
		for t0 := 0; t0 < 2; t0++ {
			o = append(o, fmt.Sprintf("%s*a%d + %s*a%d", w(t1, 0), t0, w(t1, 1), t0+2))
		}
	}
	tuple(names("a", 4), "=", a)
	tuple(out, op, o)
}

// interp3 assigns out[t] = sum_s B[t0][s0] B[t1][s1] B[t2][s2] in[s] as
// three 1D passes, one per axis, through the temporaries {tmp}x{n} and
// {tmp}xy{n}.
func interp3(in, out []string, tmp, op string) {
	cur := in
	for axis, next := range [][]string{names(tmp+"x", 8), names(tmp+"xy", 8), out} {
		var rhs []string
		for n := 0; n < 8; n++ {
			t := bit(n, axis)
			rhs = append(rhs, fmt.Sprintf("%s*%s + %s*%s", w(t, 0), cur[n&^(1<<axis)], w(t, 1), cur[n|1<<axis]))
		}
		o := ":="
		if axis == 2 {
			o = op
		}
		tuple(next[:4], o, rhs[:4])
		tuple(next[4:], o, rhs[4:])
		cur = next
	}
}

func main() {
	p("// Code generated by gen_stokesapply.go; DO NOT EDIT.")
	p("")
	p("package fem")
	p("")
	p(`// StokesApply computes the action of the coupled Q1-Q1 Stokes element
// operator of the mapped element g with viscosity eta — the same
// contract and 4a+c dof layout as StokesKernels.Apply, to which it is
// equal to rounding — without any tabulated matrix, by sum
// factorisation in reference coordinates. Per quadrature point q, with
// the reference velocity gradient L_ref[i][d] = du_i/dxi_d (each one
// four edge differences interpolated over the two other axes) and the
// pressure p_q (three 1D interpolation passes),
//
//	L = L_ref J^{-1},  S = W (eta (L + L^T) - p_q I),  F = S J^{-T},
//	r_q = W (-tr L - p_q/eta) + W pbar/(eta Vol),  pbar = sum_q W p_q,
//
// and the transposed passes test F against the reference shape
// gradients (ye_v) and r against the shape values (ye_p). The last term
// of r_q is the Dohrmann–Bochev projection, which restores the
// element-mean pressure the mass term removed. The kernel reads only
// g.Q (J^{-1} and W per point) and g.Vol: 648 B per element.`)
	p("func (g *ElemGeom) StokesApply(eta float64, xe, ye *[32]float64) {")
	p("const ga = 0.5 + 0.5/1.7320508075688772935274463415 // 1D shape value at its own Gauss point")
	p("const gb = 1 - ga")
	p("inv := 1 / eta")
	p("var a0, a1, a2, a3 float64")
	p("")
	p("// Reference velocity gradients on the Gauss lines, l{i}{d}{e} = du_i/dxi_d:")
	p("// the edge differences e{e} interpolated over the two other axes.")
	p("var e0, e1, e2, e3 float64")
	for i := 0; i < 3; i++ {
		for d := 0; d < 3; d++ {
			var diff []string
			for e := 0; e < 4; e++ {
				diff = append(diff, fmt.Sprintf("xe[%d] - xe[%d]", 4*at(e, d, 1)+i, 4*at(e, d, 0)+i))
			}
			tuple(names("e", 4), "=", diff)
			interp2(names("e", 4), names(fmt.Sprintf("l%d%d", i, d), 4), ":=")
		}
	}
	p("")
	p("// Pressure, weight and weighted pressure at the Gauss points.")
	var pin []string
	for n := 0; n < 8; n++ {
		pin = append(pin, fmt.Sprintf("xe[%d]", 4*n+3))
	}
	interp3(pin, names("p", 8), "p", ":=")
	for h := 0; h < 8; h += 4 {
		var wq, wp []string
		for q := h; q < h+4; q++ {
			wq = append(wq, fmt.Sprintf("g.Q[%d].W", q))
			wp = append(wp, fmt.Sprintf("w%d * p%d", q, q))
		}
		tuple(names("w", 8)[h:h+4], ":=", wq)
		tuple(names("wp", 8)[h:h+4], ":=", wp)
	}
	p("sc := (wp0 + wp1 + wp2 + wp3 + wp4 + wp5 + wp6 + wp7) * inv / g.Vol")
	p("")
	p("// Per point: physical gradient, stress, and the flux F = S J^{-T}")
	p("// summed along each Gauss line (f{i}{d}{e}); the pressure-row residual r{q}.")
	for i := 0; i < 3; i++ {
		for d := 0; d < 3; d++ {
			p("var %s float64", strings.Join(names(fmt.Sprintf("f%d%d", i, d), 4), ", "))
		}
	}
	p("var r0, r1, r2, r3, r4, r5, r6, r7 float64")
	sym := func(i, j int) string {
		if i > j {
			i, j = j, i
		}
		return fmt.Sprintf("s%d%d", i, j)
	}
	for q := 0; q < 8; q++ {
		p("{")
		p("J := &g.Q[%d].Ji", q)
		for d := 0; d < 3; d++ {
			p("j%d0, j%d1, j%d2 := J[%d][0], J[%d][1], J[%d][2]", d, d, d, d, d, d)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				p("L%d%d := l%d0%d*j0%d + l%d1%d*j1%d + l%d2%d*j2%d", i, j,
					i, line(q, 0), j, i, line(q, 1), j, i, line(q, 2), j)
			}
		}
		p("we := w%d * eta", q)
		p("s00 := 2*we*L00 - wp%d", q)
		p("s11 := 2*we*L11 - wp%d", q)
		p("s22 := 2*we*L22 - wp%d", q)
		p("s01 := we * (L01 + L10)")
		p("s02 := we * (L02 + L20)")
		p("s12 := we * (L12 + L21)")
		for i := 0; i < 3; i++ {
			for d := 0; d < 3; d++ {
				op := "="
				if bit(q, d) == 1 {
					op = "+=" // the second point on this line
				}
				p("f%d%d%d %s %s*j%d0 + %s*j%d1 + %s*j%d2", i, d, line(q, d), op,
					sym(i, 0), d, sym(i, 1), d, sym(i, 2), d)
			}
		}
		p("r%d = -w%d*(L00+L11+L22) - inv*wp%d + sc*w%d", q, q, q, q)
		p("}")
	}
	p("")
	p("// Transposed passes: the line sums interpolated back to the edges")
	p("// (g{i}{d}{e}) and tested against the reference shape gradients, +1")
	p("// at each edge's upper corner and -1 at its lower one; r against the")
	p("// shape values.")
	for i := 0; i < 3; i++ {
		for d := 0; d < 3; d++ {
			interp2(names(fmt.Sprintf("f%d%d", i, d), 4), names(fmt.Sprintf("g%d%d", i, d), 4), ":=")
		}
	}
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			var expr string
			for d := 0; d < 3; d++ {
				sign := " - "
				if bit(c, d) == 1 {
					sign = " + "
				}
				if d == 0 {
					sign = strings.TrimSpace(strings.TrimPrefix(sign, " +"))
				}
				expr += fmt.Sprintf("%sg%d%d%d", sign, i, d, line(c, d))
			}
			p("ye[%d] = %s", 4*c+i, expr)
		}
	}
	var yout []string
	for n := 0; n < 8; n++ {
		yout = append(yout, fmt.Sprintf("ye[%d]", 4*n+3))
	}
	interp3(names("r", 8), yout, "r", "=")
	p("}")

	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatalf("formatting generated code: %v\n%s", err, buf.Bytes())
	}
	if err := os.WriteFile("stokesapply.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
