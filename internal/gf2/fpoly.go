package gf2

// FPoly is a polynomial with coefficients in GF(2^m): coefficient of x^i
// at index i. The zero polynomial is an empty (or all-zero) slice.
// Operations take the field explicitly and return fresh slices; FPoly
// values are treated as immutable.
type FPoly []uint16

// NewFPoly builds a polynomial from its coefficients (index = degree).
func NewFPoly(coeffs ...uint16) FPoly {
	out := make(FPoly, len(coeffs))
	copy(out, coeffs)
	return out
}

// Degree returns the degree, or -1 for the zero polynomial.
func (p FPoly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Mul returns p * q over the field.
func (p FPoly) Mul(f *Field, q FPoly) FPoly {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return nil
	}
	out := make(FPoly, dp+dq+1)
	for i := 0; i <= dp; i++ {
		if p[i] == 0 {
			continue
		}
		for j := 0; j <= dq; j++ {
			out[i+j] ^= f.Mul(p[i], q[j])
		}
	}
	return out
}
