// Package lanes writes the files of the go:generate programs that emit
// the AVX2 kernels (fem's gen_stokesapply.go, gmg's gen_levelkernel.go,
// matfree's gen_lanes.go), and owns what those kernels share: the mesh
// layout they bake in, the hanging-corner weight table, the
// hanging-corner walk and the 4x4 transpose. Only the generators import
// it, and it imports no rhea package but mesh, so fem's generator still
// runs when fem does not build.
//
// The hanging-corner rule every lane applies bit for bit as the Go loops
// do (the paper's element-level constraint): a hanging corner's value is
// its masters' values summed from zero in master order at weight 1/N,
// and a row scattered to a hanging corner adds w times the row into each
// master in master order.
package lanes

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math"
	"os"
	"strings"
	"unsafe"

	"rhea/internal/mesh"
)

// The mesh layout the kernels bake in, read from the compiled package.
const (
	RowSize    = int(unsafe.Sizeof(mesh.Mesh{}.Rows[0])) // one element's corner row
	HangSize   = int(unsafe.Sizeof(mesh.Hang{}))
	HangN      = int(unsafe.Offsetof(mesh.Hang{}.N))
	HangSlot   = int(unsafe.Offsetof(mesh.Hang{}.Slot))
	maxMasters = len(mesh.Hang{}.Slot)
)

// Gen writes one generator's files, one after the other: start a file
// with Asm or Go, write its lines, then Save it.
type Gen struct {
	name string // the generator's file name, for the headers
	buf  bytes.Buffer
}

// New returns the writer of the generator in the file name.
func New(name string) *Gen { return &Gen{name: name} }

// P writes one line.
func (g *Gen) P(format string, args ...any) { fmt.Fprintf(&g.buf, format+"\n", args...) }

// I writes one instruction: a line indented by a tab.
func (g *Gen) I(format string, args ...any) { g.P("\t"+format, args...) }

// Write appends b as it is.
func (g *Gen) Write(b []byte) (int, error) { return g.buf.Write(b) }

func (g *Gen) header() {
	g.buf.Reset()
	g.P("// Code generated by %s; DO NOT EDIT.\n", g.name)
}

// Asm starts an assembly file; doc is a comment above its include, one
// line each.
func (g *Gen) Asm(doc ...string) {
	g.header()
	for _, l := range doc {
		g.P("// %s", l)
	}
	if len(doc) > 0 {
		g.P("")
	}
	g.P("#include \"textflag.h\"\n")
}

// Go starts a Go file of package pkg under the build constraint build
// ("" for none) with the import lines imports ("" between groups).
func (g *Gen) Go(build, pkg string, imports ...string) {
	g.header()
	if build != "" {
		g.P("//go:build %s\n", build)
	}
	g.P("package %s\n", pkg)
	if len(imports) > 0 {
		g.P("import (\n%s\n)\n", strings.Join(imports, "\n"))
	}
}

// Save writes the file started last to name, through gofmt when it is Go
// source, and returns what it wrote (valid until the next file starts).
func (g *Gen) Save(name string) []byte {
	code := g.buf.Bytes()
	if strings.HasSuffix(name, ".go") {
		src, err := format.Source(code)
		if err != nil {
			log.Fatalf("formatting generated code: %v\n%s", err, code)
		}
		code = src
	}
	if err := os.WriteFile(name, code, 0o644); err != nil {
		log.Fatal(err)
	}
	return code
}

// Weights writes the read-only table sym of mesh.Hang.W by master count.
func (g *Gen) Weights(sym string) {
	g.P("// The weight of each master of a hanging corner with N masters,")
	g.P("// mesh.Hang.W, at N*8 (N = 0 has no masters and reads none).")
	for n := 0; n <= maxMasters; n++ {
		var v float64
		if n > 0 {
			v = (&mesh.Hang{N: int32(n)}).W()
		}
		g.P("DATA %s+%d(SB)/8, $0x%016x", sym, 8*n, math.Float64bits(v))
	}
	g.P("GLOBL %s(SB), RODATA|NOPTR, $%d\n", sym, 8*(maxMasters+1))
}

// Hang names the registers of the hanging-corner walk.
type Hang struct {
	Table   string // holds the mesh's hanging table
	Weights string // holds the weight table
	Entry   string // set to the entry's address
	N       string // set to the entry's master count
	Scale   string // the instruction that turns the slot in register %[1]s into its offset
}

// HangEntry points h.Entry at the hanging-table entry ^idx (complementing
// idx), puts its N in h.N and broadcasts its weight into y.
func (g *Gen) HangEntry(h Hang, idx, y string) {
	g.I("NOTQ %s", idx)
	g.I("IMUL3Q $%d, %s, %s", HangSize, idx, h.Entry)
	g.I("ADDQ %s, %s", h.Table, h.Entry)
	g.I("MOVLQSX %d(%s), %s", HangN, h.Entry, h.N)
	g.I("VBROADCASTSD (%s)(%s*8), %s", h.Weights, h.N, y)
}

// Masters writes body once per master k of the entry HangEntry found, in
// master order, jumping to end after the N-th; reg holds the master's
// slot scaled by h.Scale.
func (g *Gen) Masters(h Hang, reg, end string, body func()) {
	for k := 0; k < maxMasters; k++ {
		g.I("CMPQ %s, $%d", h.N, k+1)
		g.I("JLT %s", end)
		g.I("MOVLQSX %d(%s), %s", HangSlot+4*k, h.Entry, reg)
		g.I(h.Scale, reg)
		body()
	}
}

// Mem is the address Off(Base).
type Mem struct {
	Off  int
	Base string
}

func (m Mem) plus(d int) string { return fmt.Sprintf("%d(%s)", m.Off+d, m.Base) }

// Transpose copies the 4x4 block of float64 rows src into dst
// transposed, element c of dst row l from element l of src row c,
// through Y0..Y7. dst may be src.
func (g *Gen) Transpose(src, dst [4]Mem) {
	for i, half := range [2]int{0, 16} {
		g.I("VMOVUPD %s, X%d", src[0].plus(half), 2*i)
		g.I("VINSERTF128 $1, %s, Y%d, Y%d", src[2].plus(half), 2*i, 2*i)
		g.I("VMOVUPD %s, X%d", src[1].plus(half), 2*i+1)
		g.I("VINSERTF128 $1, %s, Y%d, Y%d", src[3].plus(half), 2*i+1, 2*i+1)
	}
	g.I("VUNPCKLPD Y1, Y0, Y4")
	g.I("VUNPCKHPD Y1, Y0, Y5")
	g.I("VUNPCKLPD Y3, Y2, Y6")
	g.I("VUNPCKHPD Y3, Y2, Y7")
	for l, m := range dst {
		g.I("VMOVUPD Y%d, %s", 4+l, m.plus(0))
	}
}
