// Plume: the paper's Fig 1 scenario — regional mantle convection where
// rising thermal plumes are tracked by dynamic mesh adaptation. The
// example runs a few adaptation cycles and prints an ASCII rendering of a
// vertical temperature slice together with the local refinement level, so
// you can watch the mesh follow the plume.
package main

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"rhea/internal/fem"
	"rhea/internal/morton"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

func main() {
	cycles := flag.Int("cycles", 3, "adaptation cycles to run")
	flag.Parse()
	cfg := rhea.Config{
		Dom: fem.Domain{Box: [3]float64{2, 1, 1}},
		Ra:  3e5,
		InitialTemp: func(x [3]float64) float64 {
			T := 1 - x[2]
			// Two hot blobs that will rise as plumes.
			T += 0.2 * math.Exp(-((x[0]-0.5)*(x[0]-0.5)+(x[1]-0.5)*(x[1]-0.5)+(x[2]-0.2)*(x[2]-0.2))/0.01)
			T += 0.2 * math.Exp(-((x[0]-1.4)*(x[0]-1.4)+(x[1]-0.5)*(x[1]-0.5)+(x[2]-0.25)*(x[2]-0.25))/0.015)
			return T
		},
		Visc:        rhea.TemperatureDependent(1, 4.6),
		BaseLevel:   3,
		MinLevel:    2,
		MaxLevel:    6,
		TargetElems: 3000,
		AdaptEvery:  6,
		Picard:      1,
	}

	sim.Run(4, func(r *sim.Rank) {
		s := rhea.New(r, cfg)
		for cycle := 0; cycle <= *cycles; cycle++ {
			if cycle > 0 {
				s.SolveStokes()
				s.AdvectSteps(cfg.AdaptEvery)
				st := s.Adapt()
				if r.ID() == 0 {
					fmt.Printf("\ncycle %d: %d elements (refined %d, coarsened %d)\n",
						cycle, st.ElementsNow, st.Refined, st.Coarsened)
				}
			}
			printSlice(r, s)
		}
	})
}

// printSlice renders temperature (characters) and octree level (digits)
// on the y=const midplane, gathered to rank 0.
func printSlice(r *sim.Rank, s *rhea.Sim) {
	const nx, nz = 64, 24
	vals := s.Mesh.GatherSlots(s.T.Data)[0]

	// Each rank stamps the cells covered by its elements.
	tGrid := make([]float64, nx*nz)
	lGrid := make([]float64, nx*nz)
	ymid := uint32(morton.RootLen / 2)
	for ei, leaf := range s.Mesh.Leaves {
		if leaf.Y > ymid || leaf.Y+leaf.Len() <= ymid {
			continue
		}
		var tAvg float64
		for c := 0; c < 8; c++ {
			tAvg += s.Mesh.Corners[ei][c].Value(vals) / 8
		}
		x0 := int(float64(leaf.X) / float64(morton.RootLen) * nx)
		x1 := int(float64(leaf.X+leaf.Len()) / float64(morton.RootLen) * nx)
		z0 := int(float64(leaf.Z) / float64(morton.RootLen) * nz)
		z1 := int(float64(leaf.Z+leaf.Len()) / float64(morton.RootLen) * nz)
		for z := z0; z < z1 && z < nz; z++ {
			for x := x0; x < x1 && x < nx; x++ {
				tGrid[z*nx+x] = tAvg
				lGrid[z*nx+x] = float64(leaf.Level)
			}
		}
	}
	tAll := r.AllreduceVec(tGrid)
	lAll := r.AllreduceVec(lGrid)
	if r.ID() != 0 {
		return
	}
	shades := " .:-=+*#%@"
	var b strings.Builder
	b.WriteString("temperature (y midplane)            refinement level\n")
	for z := nz - 1; z >= 0; z-- {
		for x := 0; x < nx/2; x++ {
			t := tAll[z*nx+x*2]
			i := int(t * float64(len(shades)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(shades) {
				i = len(shades) - 1
			}
			b.WriteByte(shades[i])
		}
		b.WriteString("   ")
		for x := 0; x < nx/2; x++ {
			b.WriteByte('0' + byte(lAll[z*nx+x*2]))
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
}
