//go:build ignore

// gen_stokesapply writes stokesapply.go, the straight-line body of
// (*ElemGeom).StokesApply, and from it the AVX2 kernel that runs four
// elements at once, one per lane (stokesapply_amd64.s, declared with the
// struct layout it bakes in by stokesapply_amd64.go). Run it with
// `go generate ./internal/fem`.
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
	"go/ast"
	"go/constant"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"math"
	"os"
	"sort"
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
	genAsm(src)
}

// The AVX2 kernel is not written by hand: it is compiled from the AST of
// the StokesApply source just generated, so the two cannot drift. Every
// scalar operation of that source becomes one packed operation on four
// elements, one per lane — VADDPD, VSUBPD, VMULPD, VDIVPD, and VXORPD
// with the sign bit for a negation — on the same operands in the same
// expression tree, and nothing is fused into an FMA, so each lane
// rounds exactly as the scalar code does. Constants are the float64
// values of Go's exact constant arithmetic (gb = 1 - ga rounded at run
// time would be one ulp off). Geometry is gathered from the four
// elements' ElemGeom entries by address (VGATHERQPD with the four
// pointers as indices over a zero base, so lanes may alias one geometry
// or come from anywhere), the inputs and outputs are Lanes4 (one
// register per dof).
//
// The source is straight-line, so each local is one SSA value and the
// registers are assigned by Belady's rule: when all 14 value registers
// are taken, evict the value read again furthest in the future, storing
// it to an aligned stack slot first unless memory already holds it.
// Operands that live in memory (inputs, constants, spilled values) are
// read as the second source of the packed op where the op allows; an
// addition or multiplication may swap its operands for that, which
// IEEE arithmetic makes exact. An expression the source computes twice
// (2*we) is computed once.

// The struct layout the kernel bakes in, computed from the declarations
// in geom.go with the gc compiler's amd64 sizes, so the generator runs
// even when the package it regenerates does not build.
var geomSize, qjacSize, offQ, offVol, offJi, offW = structLayout()

func structLayout() (geomSize, qjacSize, offQ, offVol, offJi, offW int) {
	fs := token.NewFileSet()
	f, err := parser.ParseFile(fs, "geom.go", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Type-check the two declarations alone: they use no other package.
	decl := &ast.GenDecl{Tok: token.TYPE}
	for _, d := range f.Decls {
		if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.TYPE {
			for _, s := range d.Specs {
				if n := s.(*ast.TypeSpec).Name.Name; n == "ElemGeom" || n == "QJac" {
					decl.Specs = append(decl.Specs, s)
				}
			}
		}
	}
	pkg, err := new(types.Config).Check("fem", fs, []*ast.File{{Name: f.Name, Decls: []ast.Decl{decl}}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	sizes := types.SizesFor("gc", "amd64")
	layout := func(name string) (int, map[string]int) {
		st := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		off := map[string]int{}
		for i, o := range sizes.Offsetsof(fields) {
			off[fields[i].Name()] = int(o)
		}
		return int(sizes.Sizeof(st)), off
	}
	gs, g := layout("ElemGeom")
	qs, q := layout("QJac")
	return gs, qs, g["Q"], g["Vol"], q["Ji"], q["W"]
}

type vkind int

const (
	vMem    vkind = iota // resident in memory: an input lane vector or a constant
	vGather              // a geometry field of the four elements
	vNeg
	vAdd
	vSub
	vMul
	vDiv
)

var mnemonic = map[vkind]string{vAdd: "VADDPD", vSub: "VSUBPD", vMul: "VMULPD", vDiv: "VDIVPD"}

// val is one SSA value of the kernel.
type val struct {
	kind vkind
	mem  string // vMem: its memory operand
	off  int    // vGather: byte offset in ElemGeom
	a, b int    // operands
	uses []int  // steps that read it, ascending
}

// step defines value def, or (def < 0) stores value src to memory.
type step struct {
	def   int
	src   int
	store string
}

// binding is what a name of the source stands for in one scope.
type binding struct {
	v    int            // an SSA value, or -1
	zero bool           // a variable declared without a value, not yet assigned
	c    constant.Value // a constant
	addr *gaddr         // a pointer into the geometry (J := &g.Q[q].Ji)
}

// gaddr is a place in an ElemGeom: byte offset and Go type.
type gaddr struct {
	off int
	typ string
}

type kernel struct {
	vals   []val
	steps  []step
	scopes []map[string]binding
	memv   map[string]int
	gath   map[int]int
	cse    map[[3]int]int
	consts []uint64 // bit patterns, in order of first use
}

func (k *kernel) newVal(v val) int {
	k.vals = append(k.vals, v)
	return len(k.vals) - 1
}

func (k *kernel) use(v int) { k.vals[v].uses = append(k.vals[v].uses, len(k.steps)) }

// mem returns the value resident at a memory operand.
func (k *kernel) mem(operand string) int {
	if v, ok := k.memv[operand]; ok {
		return v
	}
	v := k.newVal(val{kind: vMem, mem: operand, a: -1, b: -1})
	k.memv[operand] = v
	return v
}

// constant returns the value of a float64 constant, four copies of which
// sit in the kernel's read-only data.
func (k *kernel) constant(c constant.Value) int {
	f, _ := constant.Float64Val(constant.ToFloat(c))
	bits := math.Float64bits(f)
	i := 0
	for i < len(k.consts) && k.consts[i] != bits {
		i++
	}
	if i == len(k.consts) {
		k.consts = append(k.consts, bits)
	}
	return k.mem(fmt.Sprintf("stokesconst<>+%d(SB)", 32*i))
}

func (k *kernel) gather(off int) int {
	if v, ok := k.gath[off]; ok {
		return v
	}
	v := k.newVal(val{kind: vGather, off: off, a: -1, b: -1})
	k.gath[off] = v
	k.steps = append(k.steps, step{def: v})
	return v
}

// op returns the value of a packed operation, reusing an identical one
// already computed.
func (k *kernel) op(kind vkind, a, b int) int {
	key := [3]int{int(kind), a, b}
	if v, ok := k.cse[key]; ok {
		return v
	}
	v := k.newVal(val{kind: kind, a: a, b: b})
	k.cse[key] = v
	k.use(a)
	if b >= 0 {
		k.use(b)
	}
	k.steps = append(k.steps, step{def: v})
	return v
}

func (k *kernel) lookup(name string) (binding, bool) {
	for i := len(k.scopes) - 1; i >= 0; i-- {
		if b, ok := k.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// set rebinds an existing name in the scope that declares it.
func (k *kernel) set(name string, b binding) {
	for i := len(k.scopes) - 1; i >= 0; i-- {
		if _, ok := k.scopes[i][name]; ok {
			k.scopes[i][name] = b
			return
		}
	}
	log.Fatalf("assignment to undeclared %s", name)
}

// constExpr evaluates e exactly, as Go does, if it is constant.
func (k *kernel) constExpr(e ast.Expr) (constant.Value, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0), true
	case *ast.ParenExpr:
		return k.constExpr(e.X)
	case *ast.Ident:
		if b, ok := k.lookup(e.Name); ok && b.c != nil {
			return b.c, true
		}
	case *ast.UnaryExpr:
		if x, ok := k.constExpr(e.X); ok {
			return constant.UnaryOp(e.Op, x, 0), true
		}
	case *ast.BinaryExpr:
		x, okx := k.constExpr(e.X)
		y, oky := k.constExpr(e.Y)
		if okx && oky {
			op := e.Op
			if op == token.QUO {
				x = constant.ToFloat(x) // untyped float division
			}
			return constant.BinaryOp(x, op, y), true
		}
	}
	return nil, false
}

var geomFields = map[string]map[string]gaddr{
	"ElemGeom": {"Q": {offQ, "[8]QJac"}, "Vol": {offVol, "float64"}},
	"QJac":     {"Ji": {offJi, "[3][3]float64"}, "W": {offW, "float64"}},
}

var geomArrays = map[string]struct {
	n, size int
	elem    string
}{
	"[8]QJac":       {8, qjacSize, "QJac"},
	"[3][3]float64": {3, 24, "[3]float64"},
	"[3]float64":    {3, 8, "float64"},
}

func (k *kernel) index(e ast.Expr) int {
	c, ok := k.constExpr(e)
	if !ok {
		log.Fatalf("non-constant index %s", src(e))
	}
	i, _ := constant.Int64Val(c)
	return int(i)
}

// geom resolves a path into the element geometry.
func (k *kernel) geom(e ast.Expr) gaddr {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "g" {
			return gaddr{0, "ElemGeom"}
		}
		if b, ok := k.lookup(e.Name); ok && b.addr != nil {
			return *b.addr
		}
	case *ast.SelectorExpr:
		base := k.geom(e.X)
		if f, ok := geomFields[base.typ][e.Sel.Name]; ok {
			return gaddr{base.off + f.off, f.typ}
		}
	case *ast.IndexExpr:
		base := k.geom(e.X)
		if a, ok := geomArrays[base.typ]; ok {
			if i := k.index(e.Index); i >= 0 && i < a.n {
				return gaddr{base.off + i*a.size, a.elem}
			}
		}
	}
	log.Fatalf("unsupported geometry access %s", src(e))
	return gaddr{}
}

// lane returns the lane-vector operand of xe[i] or ye[i], or "".
func (k *kernel) lane(e ast.Expr) (string, bool) {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return "", false
	}
	id, ok := ix.X.(*ast.Ident)
	if !ok || id.Name != "xe" && id.Name != "ye" {
		return "", false
	}
	i := k.index(ix.Index)
	if i < 0 || i >= 32 {
		log.Fatalf("index out of range: %s", src(e))
	}
	reg := map[string]string{"xe": "SI", "ye": "DI"}[id.Name]
	return fmt.Sprintf("%d(%s)", 32*i, reg), id.Name == "ye"
}

func (k *kernel) expr(e ast.Expr) int {
	if c, ok := k.constExpr(e); ok {
		return k.constant(c)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return k.expr(e.X)
	case *ast.Ident:
		if b, ok := k.lookup(e.Name); ok && b.v >= 0 {
			return b.v
		} else if ok && b.zero {
			return k.constant(constant.MakeFloat64(0))
		}
		if e.Name == "eta" {
			return k.mem("(BX)")
		}
	case *ast.UnaryExpr:
		if e.Op == token.SUB {
			return k.op(vNeg, k.expr(e.X), -1)
		}
	case *ast.BinaryExpr:
		kind, ok := map[token.Token]vkind{token.ADD: vAdd, token.SUB: vSub, token.MUL: vMul, token.QUO: vDiv}[e.Op]
		if ok {
			return k.op(kind, k.expr(e.X), k.expr(e.Y))
		}
	case *ast.IndexExpr, *ast.SelectorExpr:
		if operand, out := k.lane(e); operand != "" && !out {
			return k.mem(operand)
		}
		a := k.geom(e)
		if a.typ != "float64" {
			log.Fatalf("geometry access %s is not a float64", src(e))
		}
		return k.gather(a.off)
	}
	log.Fatalf("unsupported expression %s", src(e))
	return -1
}

func (k *kernel) stmts(list []ast.Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.BlockStmt:
			k.scopes = append(k.scopes, map[string]binding{})
			k.stmts(s.List)
			k.scopes = k.scopes[:len(k.scopes)-1]
		case *ast.DeclStmt:
			d := s.Decl.(*ast.GenDecl)
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					b := binding{v: -1}
					switch {
					case d.Tok == token.CONST:
						c, ok := k.constExpr(vs.Values[i])
						if !ok {
							log.Fatalf("constant %s is not constant", name.Name)
						}
						b.c = c
					case d.Tok == token.VAR && len(vs.Values) == 0:
						b.zero = true
					default:
						log.Fatalf("unsupported declaration of %s", name.Name)
					}
					k.scopes[len(k.scopes)-1][name.Name] = b
				}
			}
		case *ast.AssignStmt:
			k.assign(s)
		default:
			log.Fatalf("unsupported statement %s", src(s))
		}
	}
}

func (k *kernel) assign(s *ast.AssignStmt) {
	if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.AND && s.Tok == token.DEFINE {
		a := k.geom(u.X)
		k.scopes[len(k.scopes)-1][s.Lhs[0].(*ast.Ident).Name] = binding{v: -1, addr: &a}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		log.Fatalf("unsupported assignment %s", src(s))
	}
	// A tuple assignment evaluates every right-hand side first.
	rhs := make([]int, len(s.Rhs))
	for i, e := range s.Rhs {
		rhs[i] = k.expr(e)
	}
	for i, lhs := range s.Lhs {
		if operand, out := k.lane(lhs); out && s.Tok == token.ASSIGN {
			k.use(rhs[i])
			k.steps = append(k.steps, step{def: -1, src: rhs[i], store: operand})
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			log.Fatalf("unsupported assignment to %s", src(lhs))
		}
		switch s.Tok {
		case token.DEFINE:
			k.scopes[len(k.scopes)-1][id.Name] = binding{v: rhs[i]}
		case token.ASSIGN:
			k.set(id.Name, binding{v: rhs[i]})
		case token.ADD_ASSIGN:
			k.set(id.Name, binding{v: k.op(vAdd, k.expr(id), rhs[i])})
		default:
			log.Fatalf("unsupported assignment %s", src(s))
		}
	}
}

var fset = token.NewFileSet()

func src(n ast.Node) string {
	var b bytes.Buffer
	format.Node(&b, fset, n)
	return b.String()
}

// Register allocation and emission.

const nreg = 14 // Y0..Y13 hold values; Y14 is the gather mask, Y15 the four geometry addresses

type alloc struct {
	k      *kernel
	out    bytes.Buffer
	reg    [nreg]int // value held, or -1
	loc    []int     // register holding a value, or -1
	slot   []int     // stack slot holding a value, or -1
	free   []int     // released stack slots
	nslots int
}

func (a *alloc) emit(format string, args ...any) { fmt.Fprintf(&a.out, "\t"+format+"\n", args...) }

// nextUse returns the first step after i that reads v.
func (a *alloc) nextUse(v, i int) int {
	u := a.k.vals[v].uses
	if j := sort.SearchInts(u, i+1); j < len(u) {
		return u[j]
	}
	return math.MaxInt
}

func (a *alloc) lastUse(v int) int {
	u := a.k.vals[v].uses
	if len(u) == 0 {
		return -1
	}
	return u[len(u)-1]
}

// operand returns where v can be read: its register, else memory.
func (a *alloc) operand(v int) string {
	switch {
	case a.loc[v] >= 0:
		return fmt.Sprintf("Y%d", a.loc[v])
	case a.k.vals[v].kind == vMem:
		return a.k.vals[v].mem
	case a.slot[v] >= 0:
		return fmt.Sprintf("%d(R11)", 32*a.slot[v])
	}
	log.Fatalf("value %d is nowhere", v)
	return ""
}

// grab frees a register for step i, sparing the registers in keep.
func (a *alloc) grab(i int, keep ...int) int {
	best, far := -1, -1
	for r := 0; r < nreg; r++ {
		if contains(keep, r) {
			continue
		}
		if a.reg[r] < 0 {
			return r
		}
		if n := a.nextUse(a.reg[r], i); n > far {
			best, far = r, n
		}
	}
	v := a.reg[best]
	if a.k.vals[v].kind != vMem && a.slot[v] < 0 {
		if n := len(a.free); n > 0 {
			a.slot[v], a.free = a.free[n-1], a.free[:n-1]
		} else {
			a.slot[v] = a.nslots
			a.nslots++
		}
		a.emit("VMOVUPD Y%d, %d(R11)", best, 32*a.slot[v])
	}
	a.loc[v], a.reg[best] = -1, -1
	return best
}

func contains(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// inReg brings v into a register for step i.
func (a *alloc) inReg(v, i int, keep ...int) int {
	if r := a.loc[v]; r >= 0 {
		return r
	}
	r := a.grab(i, keep...)
	a.emit("VMOVUPD %s, Y%d", a.operand(v), r)
	a.reg[r], a.loc[v] = v, r
	return r
}

// release drops v from its register and stack slot once step i was its
// last reader.
func (a *alloc) release(v, i int) {
	if v < 0 || a.lastUse(v) > i {
		return
	}
	if r := a.loc[v]; r >= 0 {
		a.reg[r], a.loc[v] = -1, -1
	}
	if s := a.slot[v]; s >= 0 {
		a.free, a.slot[v] = append(a.free, s), -1
	}
}

// dest picks the register for the result of step i, reusing an operand
// register whose value dies there.
func (a *alloc) dest(i int, regs ...int) int {
	for _, r := range regs {
		if r >= 0 && a.lastUse(a.reg[r]) <= i {
			return r
		}
	}
	return a.grab(i, regs...)
}

func (a *alloc) run() {
	k := a.k
	a.loc, a.slot = make([]int, len(k.vals)), make([]int, len(k.vals))
	for v := range k.vals {
		a.loc[v], a.slot[v] = -1, -1
	}
	for r := range a.reg {
		a.reg[r] = -1
	}
	for i, s := range k.steps {
		if s.def < 0 {
			r := a.inReg(s.src, i)
			a.emit("VMOVUPD Y%d, %s", r, s.store)
			a.release(s.src, i)
			continue
		}
		v := &k.vals[s.def]
		var d int
		switch v.kind {
		case vGather:
			d = a.grab(i)
			a.emit("VPCMPEQQ Y14, Y14, Y14")
			a.emit("VGATHERQPD Y14, %d(AX)(Y15*1), Y%d", v.off, d)
		case vNeg:
			x := a.inReg(v.a, i)
			d = a.dest(i, x)
			a.emit("VXORPD stokessign<>(SB), Y%d, Y%d", x, d)
		default:
			l, r := v.a, v.b
			if (v.kind == vAdd || v.kind == vMul) && a.loc[l] < 0 && a.loc[r] >= 0 {
				l, r = r, l // commutative: read the operand not in a register from memory
			}
			xl := a.inReg(l, i, a.loc[r])
			d = a.dest(i, xl, a.loc[r])
			a.emit("%s %s, Y%d, Y%d", mnemonic[v.kind], a.operand(r), xl, d)
		}
		a.release(v.a, i)
		a.release(v.b, i)
		if old := a.reg[d]; old >= 0 {
			a.loc[old] = -1
		}
		a.reg[d], a.loc[s.def] = s.def, d
		a.release(s.def, i)
	}
}

// genAsm writes stokesapply_amd64.s and its declaration from the
// formatted StokesApply source.
func genAsm(code []byte) {
	f, err := parser.ParseFile(fset, "stokesapply.go", code, 0)
	if err != nil {
		log.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == "StokesApply" {
			fn = d
		}
	}
	var params []string
	for _, fl := range append(fn.Recv.List, fn.Type.Params.List...) {
		for _, n := range fl.Names {
			params = append(params, n.Name)
		}
	}
	if strings.Join(params, " ") != "g eta xe ye" {
		log.Fatalf("StokesApply's parameters are %v, the kernel expects g eta xe ye", params)
	}
	k := &kernel{scopes: []map[string]binding{{}}, memv: map[string]int{}, gath: map[int]int{}, cse: map[[3]int]int{}}
	k.stmts(fn.Body.List)
	stored := map[string]bool{}
	for _, s := range k.steps {
		if s.def < 0 {
			stored[s.store] = true
		}
	}
	if len(stored) != 32 {
		log.Fatalf("StokesApply writes %d of the 32 outputs", len(stored))
	}
	a := &alloc{k: k}
	a.run()

	var ops, gathers int
	for _, v := range k.vals {
		switch v.kind {
		case vMem:
		case vGather:
			gathers++
		default:
			ops++
		}
	}
	var b bytes.Buffer
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("// Code generated by gen_stokesapply.go; DO NOT EDIT.")
	w("")
	w("// StokesApply on four elements, one per lane: %d packed arithmetic ops,", ops)
	w("// %d gathered geometry fields, %d stack slots for values the 14", gathers, a.nslots)
	w("// value registers cannot hold.")
	w("")
	w("#include \"textflag.h\"")
	w("")
	for i, bits := range k.consts {
		for l := 0; l < 4; l++ {
			w("DATA stokesconst<>+%d(SB)/8, $0x%016x // %v", 32*i+8*l, bits, math.Float64frombits(bits))
		}
	}
	w("GLOBL stokesconst<>(SB), RODATA|NOPTR, $%d", 32*len(k.consts))
	w("")
	for l := 0; l < 4; l++ {
		w("DATA stokessign<>+%d(SB)/8, $0x8000000000000000", 8*l)
	}
	w("GLOBL stokessign<>(SB), RODATA|NOPTR, $32")
	w("")
	w("// func stokesApply4AVX2(geo *[4]*ElemGeom, eta *[4]float64, xe, ye *Lanes4)")
	w("TEXT ·stokesApply4AVX2(SB), 0, $%d-32", 32*a.nslots+32)
	w("\tMOVQ geo+0(FP), AX")
	w("\tVMOVDQU (AX), Y15")
	w("\tXORQ AX, AX")
	w("\tMOVQ eta+8(FP), BX")
	w("\tMOVQ xe+16(FP), SI")
	w("\tMOVQ ye+24(FP), DI")
	w("\tLEAQ 31(SP), R11")
	w("\tANDQ $~31, R11")
	b.Write(a.out.Bytes())
	w("\tVZEROUPPER")
	w("\tRET")
	if err := os.WriteFile("stokesapply_amd64.s", b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}

	b.Reset()
	w("// Code generated by gen_stokesapply.go; DO NOT EDIT.")
	w("")
	w("package fem")
	w("")
	w("// stokesApply4AVX2 is StokesApply on the four elements *geo[0:4], one")
	w("// per lane (stokesapply_amd64.s). The CPU must have AVX2.")
	w("//")
	w("//go:noescape")
	w("func stokesApply4AVX2(geo *[4]*ElemGeom, eta *[4]float64, xe, ye *Lanes4)")
	w("")
	w("// The struct layout stokesApply4AVX2 reads; TestLanesLayout fails when")
	w("// ElemGeom or QJac no longer has it.")
	w("const (")
	w("asmGeomSize = %d", geomSize)
	w("asmQJacSize = %d", qjacSize)
	w("asmOffQ = %d", offQ)
	w("asmOffVol = %d", offVol)
	w("asmOffJi = %d", offJi)
	w("asmOffW = %d", offW)
	w(")")
	out, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("stokesapply_amd64.go", out, 0o644); err != nil {
		log.Fatal(err)
	}
}
