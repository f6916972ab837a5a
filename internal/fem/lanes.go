package fem

// Lanes4 holds the 32 element dofs (4a+c layout, as StokesApply) of four
// elements side by side: X[i][l] is dof i of element l. Four consecutive
// float64 are one AVX2 register, so the AVX2 Stokes kernel runs one
// element per lane with every scalar operation of StokesApply done once
// for all four.
type Lanes4 [32][4]float64
