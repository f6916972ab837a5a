// Code generated by gen_stokesapply.go; DO NOT EDIT.

package fem

// stokesApply4AVX2 is StokesApply on the four elements *geo[0:4], one
// per lane (stokesapply_amd64.s). The CPU must have AVX2.
//
//go:noescape
func stokesApply4AVX2(geo *[4]*ElemGeom, eta *[4]float64, xe, ye *Lanes4)

// The struct layout stokesApply4AVX2 reads; TestLanesLayout fails when
// ElemGeom or QJac no longer has it.
const (
	asmGeomSize = 680
	asmQJacSize = 80
	asmOffQ     = 0
	asmOffVol   = 640
	asmOffJi    = 0
	asmOffW     = 72
)
