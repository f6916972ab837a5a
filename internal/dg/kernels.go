package dg

// Kernels applies the element derivative operator in the tensor-product
// form: the 1-D differentiation matrix along each of the three axes,
// 6(p+1)^4 flops per element for all three directions. The dense
// (p+1)^3 x (p+1)^3 matrix form §VII of the paper benchmarks it against
// (6(p+1)^6 flops) survives as the test oracle in dg_test.go.
type Kernels struct {
	B *Basis
	N int // nodes per direction = p+1
}

// NewKernels builds the kernels of order p.
func NewKernels(p int) *Kernels {
	return &Kernels{B: NewBasis(p), N: p + 1}
}

// DerivTensor computes the derivative along axis d of the nodal field u
// ((p+1)^3 values, x fastest) into out using the tensor-product
// formulation: 2(p+1)^4 flops.
func (k *Kernels) DerivTensor(u, out []float64, d int) {
	n := k.N
	D := k.B.D
	switch d {
	case 0:
		for off := 0; off < n*n*n; off += n {
			for i := 0; i < n; i++ {
				var s float64
				row := D[i*n:]
				src := u[off:]
				for m := 0; m < n; m++ {
					s += row[m] * src[m]
				}
				out[off+i] = s
			}
		}
	case 1:
		nn := n * n
		for l := 0; l < n; l++ {
			base := l * nn
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					var s float64
					for m := 0; m < n; m++ {
						s += D[j*n+m] * u[base+m*n+i]
					}
					out[base+j*n+i] = s
				}
			}
		}
	default:
		nn := n * n
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				col := j*n + i
				for l := 0; l < n; l++ {
					var s float64
					for m := 0; m < n; m++ {
						s += D[l*n+m] * u[m*nn+col]
					}
					out[l*nn+col] = s
				}
			}
		}
	}
}
