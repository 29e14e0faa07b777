package gf2

import (
	"math/rand"
	"slices"
	"testing"
)

func randFPoly(rng *rand.Rand, f *Field, maxDeg int) FPoly {
	p := make(FPoly, rng.Intn(maxDeg+1)+1)
	for i := range p {
		p[i] = uint16(rng.Intn(f.Order() + 1))
	}
	return p
}

func TestFPolyBasics(t *testing.T) {
	if NewFPoly(3, 0, 1).Degree() != 2 { // x^2 + 3
		t.Error("degree of x^2 + 3")
	}
	if (FPoly{}).Degree() != -1 || (FPoly{0, 0}).Degree() != -1 {
		t.Error("zero degree")
	}
}

func TestFPolyArithmetic(t *testing.T) {
	f := mustField(t, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randFPoly(rng, f, 6)
		b := randFPoly(rng, f, 6)
		// Commutativity, and evaluation as a homomorphism at a random
		// point (a field has no zero divisors, so equality at enough
		// points means equality).
		x := uint16(rng.Intn(f.Order() + 1))
		ab := a.Mul(f, b)
		if !slices.Equal(ab, b.Mul(f, a)) {
			t.Fatal("Mul not commutative")
		}
		if f.Eval(ab, x) != f.Mul(f.Eval(a, x), f.Eval(b, x)) {
			t.Fatal("Eval not multiplicative")
		}
	}
}

func TestFPolyRoots(t *testing.T) {
	f := mustField(t, 6)
	// Construct (x - alpha^3)(x - alpha^17)(x - alpha^40): exactly those
	// three nonzero elements are roots.
	want := []int{3, 17, 40}
	p := NewFPoly(1)
	for _, e := range want {
		p = p.Mul(f, NewFPoly(f.Alpha(e), 1))
	}
	var got []int
	for e := 0; e < f.Order(); e++ {
		if f.Eval(p, f.Alpha(e)) == 0 {
			got = append(got, e)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("roots = %v, want %v", got, want)
	}
}
