// Shellconvect runs the paper's flagship scenario end-to-end at laptop
// scale: Rayleigh–Bénard-style mantle convection in a spherical shell,
// discretized on the 24-tree cubed-sphere forest (forest.CubedSphere(2))
// with radially projected element geometry. Every element carries its
// own isoparametric Jacobians; the Stokes system is applied matrix-free
// and preconditioned by the geometric multigrid hierarchy, so no
// fine-level matrix is ever assembled. Gravity is radial, the inner
// boundary is hot (T=1), the outer cold (T=0), both no-slip; the mesh
// adapts to the temperature field each cycle.
package main

import (
	"flag"
	"fmt"
	"math"

	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

func main() {
	ranks := flag.Int("ranks", 2, "simulated MPI ranks")
	cycles := flag.Int("cycles", 2, "solve+advect+adapt cycles")
	base := flag.Uint("base", 1, "initial uniform refinement level per tree")
	target := flag.Int64("target", 400, "element budget for adaptation")
	flag.Parse()

	sim.Run(*ranks, func(r *sim.Rank) {
		cfg := rhea.Config{
			Shell: true, // 24-tree cubed sphere, radial gravity, shell BCs
			Ra:    1e4,
			InitialTemp: func(x [3]float64) float64 {
				// Conductive shell profile plus one off-axis blob to break
				// symmetry.
				rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
				cond := (2 - rad) / rad // R1(R2-r)/(r(R2-R1)) with R1=1, R2=2
				d2 := (x[0]-1.2)*(x[0]-1.2) + x[1]*x[1] + (x[2]-0.6)*(x[2]-0.6)
				return cond + 0.3*math.Exp(-d2/0.05)
			},
			Visc:        rhea.TemperatureDependent(1, 1),
			BaseLevel:   uint8(*base),
			MinLevel:    uint8(*base),
			MaxLevel:    uint8(*base) + 2,
			TargetElems: *target,
			AdaptEvery:  4,
			Picard:      1,
			InitAdapt:   1,
			MinresTol:   1e-7,
			MinresMax:   1500,
			MatrixFree:  true,
			Precond:     stokes.PrecondGMG,
		}
		s := rhea.New(r, cfg)
		// Diagnostics are collective: every rank computes them, rank 0
		// prints.
		ms := s.Mesh.GlobalStats()
		if r.ID() == 0 {
			fmt.Printf("shell mesh: %d elements, %d nodes (24-tree cubed sphere)\n",
				ms.Elements, ms.Nodes)
		}
		for c := 0; c < *cycles; c++ {
			st := s.RunCycle()
			res := s.LastMinres()
			v := s.Diagnose(false)
			if r.ID() == 0 {
				fmt.Printf("cycle %d: %5d elements  minres %3d iters  Nu %.4f  Vrms %.4f\n",
					c, st.ElementsNow, res.Iterations, v.Nu, v.Vrms)
			}
			if v.Err != nil {
				if r.ID() == 0 {
					fmt.Println(v.Err)
				}
				return
			}
		}
		s.SolveStokes()
		v := s.Diagnose(false)
		if r.ID() == 0 {
			fmt.Printf("final: Nu %.6f  Vrms %.6f  (t = %.2e, %d steps)\n",
				v.Nu, v.Vrms, s.TimeNow, s.Step)
			if v.Err != nil {
				fmt.Println(v.Err)
			}
		}
	})
}
