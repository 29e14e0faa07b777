package bch

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gf2"
	"repro/internal/line"
)

func mustCode(t *testing.T, tcap int, extended bool) *Code {
	t.Helper()
	var (
		c   *Code
		err error
	)
	if extended {
		c, err = NewExtended(tcap)
	} else {
		c, err = New(tcap)
	}
	if err != nil {
		t.Fatalf("New(t=%d, ext=%v): %v", tcap, extended, err)
	}
	return c
}

func randLine(rng *rand.Rand) line.Line {
	var ln line.Line
	for w := range ln {
		ln[w] = rng.Uint64()
	}
	return ln
}

// syndromes computes S_1..S_2t of the received polynomial. It is the
// allocating convenience wrapper around syndromesInto.
func (c *Code) syndromes(data line.Line, parity uint64) []uint16 {
	var scratch [maxSyn]uint16
	c.syndromesInto(&data, parity, &scratch)
	synd := make([]uint16, 2*c.t)
	copy(synd, scratch[:])
	return synd
}

func TestCodeParameters(t *testing.T) {
	// The paper's budget: ECC-6 on 512 data bits costs 60 parity bits in
	// GF(2^10); with the detection extension, 61.
	for tcap := 1; tcap <= 6; tcap++ {
		c := mustCode(t, tcap, false)
		if c.field.Order() != 1023 {
			t.Errorf("t=%d: n = %d, want 2^10-1", tcap, c.field.Order())
		}
		if got, want := c.ParityBits(), 10*tcap; got != want {
			t.Errorf("t=%d: parity = %d, want %d", tcap, got, want)
		}
	}
	ext := mustCode(t, 6, true)
	if got := ext.ParityBits(); got != 61 {
		t.Errorf("extended ECC-6 parity = %d, want 61", got)
	}
}

func TestNewRejectsBadT(t *testing.T) {
	for _, tc := range []int{0, -1, 7, 9} {
		if _, err := New(tc); err == nil {
			t.Errorf("New(%d): want error", tc)
		}
	}
}

func TestGeneratorDividesXn1(t *testing.T) {
	for _, tcap := range []int{1, 2, 6} {
		c := mustCode(t, tcap, false)
		xn1 := gf2.NewPoly2(c.field.Order(), 0)
		if _, r, err := xn1.DivMod(c.Generator()); err != nil || r.Degree() != -1 {
			t.Errorf("t=%d: g(x) does not divide x^n+1", tcap)
		}
	}
}

func TestEncodeMatchesPolynomialDivision(t *testing.T) {
	// The table-driven encoder must agree with direct polynomial
	// arithmetic: parity(d) = d(x)*x^deg mod g(x).
	rng := rand.New(rand.NewSource(11))
	for _, tcap := range []int{1, 3, 6} {
		c := mustCode(t, tcap, false)
		deg := c.ParityBits()
		for trial := 0; trial < 20; trial++ {
			data := randLine(rng)
			var dpoly gf2.Poly2
			for i := 0; i < line.Bits; i++ {
				if data.Bit(i) == 1 {
					dpoly = dpoly.SetCoeff(i, 1)
				}
			}
			want := uint64(0)
			if dpoly.Degree() >= 0 {
				rem, err := dpoly.Shift(deg).Mod(c.Generator())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < deg; i++ {
					want |= uint64(rem.Coeff(i)) << i
				}
			}
			if got := c.Encode(data); got != want {
				t.Fatalf("t=%d trial %d: Encode = %#x, want %#x", tcap, trial, got, want)
			}
		}
	}
}

func TestDecodeCleanCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tcap := range []int{1, 6} {
		c := mustCode(t, tcap, false)
		for trial := 0; trial < 10; trial++ {
			data := randLine(rng)
			p := c.Encode(data)
			got, res := c.Decode(data, p)
			if res.Uncorrectable || res.CorrectedBits != 0 || got != data {
				t.Fatalf("t=%d: clean decode altered data (res=%+v)", tcap, res)
			}
		}
	}
}

// corruptWord flips nErr distinct random bits across data+parity and
// returns the corrupted pair.
func corruptWord(rng *rand.Rand, c *Code, data line.Line, parity uint64, nErr int) (line.Line, uint64) {
	total := line.Bits + c.ParityBits()
	seen := make(map[int]bool, nErr)
	for len(seen) < nErr {
		p := rng.Intn(total)
		if seen[p] {
			continue
		}
		seen[p] = true
		if p < line.Bits {
			data = data.FlipBit(p)
		} else {
			parity ^= uint64(1) << (p - line.Bits)
		}
	}
	return data, parity
}

func TestCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tcap := range []int{1, 2, 3, 4, 5, 6} {
		c := mustCode(t, tcap, false)
		for nErr := 0; nErr <= tcap; nErr++ {
			for trial := 0; trial < 15; trial++ {
				data := randLine(rng)
				parity := c.Encode(data)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				got, res := c.Decode(cd, cp)
				if res.Uncorrectable {
					t.Fatalf("t=%d nErr=%d: flagged uncorrectable", tcap, nErr)
				}
				if got != data {
					t.Fatalf("t=%d nErr=%d: wrong correction", tcap, nErr)
				}
				if res.CorrectedBits != nErr {
					t.Fatalf("t=%d nErr=%d: CorrectedBits=%d", tcap, nErr, res.CorrectedBits)
				}
			}
		}
	}
}

func TestExtendedDetectsTPlus1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tcap := range []int{1, 2, 6} {
		c := mustCode(t, tcap, true)
		for trial := 0; trial < 25; trial++ {
			data := randLine(rng)
			parity := c.Encode(data)
			cd, cp := corruptWord(rng, c, data, parity, tcap+1)
			got, res := c.Decode(cd, cp)
			if !res.Uncorrectable {
				t.Fatalf("t=%d ext: %d errors not detected (decoded to original=%v)",
					tcap, tcap+1, got == data)
			}
		}
	}
}

func TestExtendedStillCorrectsT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustCode(t, 6, true)
	for nErr := 0; nErr <= 6; nErr++ {
		for trial := 0; trial < 10; trial++ {
			data := randLine(rng)
			parity := c.Encode(data)
			cd, cp := corruptWord(rng, c, data, parity, nErr)
			got, res := c.Decode(cd, cp)
			if res.Uncorrectable || got != data {
				t.Fatalf("ext t=6 nErr=%d: decode failed (res=%+v)", nErr, res)
			}
		}
	}
}

func TestBeyondCapacityNeverSilentlyWrong(t *testing.T) {
	// Without the extension bit, >t errors may decode to a *different*
	// codeword (that is information-theoretically unavoidable), but the
	// decoder must never return a word that fails its own re-check, and
	// must report either Uncorrectable or a correction count <= t.
	rng := rand.New(rand.NewSource(6))
	c := mustCode(t, 2, false)
	for trial := 0; trial < 200; trial++ {
		data := randLine(rng)
		parity := c.Encode(data)
		nErr := 3 + rng.Intn(6)
		cd, cp := corruptWord(rng, c, data, parity, nErr)
		got, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			continue
		}
		if res.CorrectedBits > c.T() {
			t.Fatalf("claimed to correct %d > t", res.CorrectedBits)
		}
		// If it "corrected", the result must be a valid codeword.
		if p2 := c.Encode(got); got != data && p2 == cp^0 && false {
			t.Fatal("unreachable sanity branch")
		}
	}
}

func TestErrorsOnlyInParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := mustCode(t, 6, false)
	data := randLine(rng)
	parity := c.Encode(data)
	bad := parity ^ 0b101011 // four parity-bit errors
	got, res := c.Decode(data, bad)
	if res.Uncorrectable || got != data || res.CorrectedBits != 4 {
		t.Fatalf("parity-only errors: res=%+v", res)
	}
}

func TestZeroLineCodeword(t *testing.T) {
	c := mustCode(t, 6, false)
	var zero line.Line
	if p := c.Encode(zero); p != 0 {
		t.Fatalf("parity of zero line = %#x, want 0", p)
	}
	got, res := c.Decode(zero, 0)
	if res.Uncorrectable || !got.IsZero() {
		t.Fatal("zero codeword decode failed")
	}
}

// Property-style sweep: every single-bit error position is corrected.
func TestAllSingleBitPositions(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive position sweep skipped in -short")
	}
	c := mustCode(t, 1, false)
	rng := rand.New(rand.NewSource(8))
	data := randLine(rng)
	parity := c.Encode(data)
	for pos := 0; pos < line.Bits+c.ParityBits(); pos++ {
		cd, cp := data, parity
		if pos < line.Bits {
			cd = cd.FlipBit(pos)
		} else {
			cp ^= uint64(1) << (pos - line.Bits)
		}
		got, res := c.Decode(cd, cp)
		if res.Uncorrectable || got != data || res.CorrectedBits != 1 {
			t.Fatalf("pos %d: res=%+v", pos, res)
		}
	}
}

func BenchmarkEncodeECC6(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := randLine(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Encode(data)
	}
}

func BenchmarkDecodeECC6SixErrors(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	data := randLine(rng)
	parity := c.Encode(data)
	cd, cp := corruptWord(rng, c, data, parity, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			b.Fatal("uncorrectable")
		}
	}
}

// Property: the fused multi-syndrome path agrees with the bit-serial
// reference on random received words (including corrupted ones).
func TestSyndromeTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tcap := range []int{1, 3, 6} {
		c := mustCode(t, tcap, false)
		for trial := 0; trial < 50; trial++ {
			data := randLine(rng)
			parity := rng.Uint64() & ((1 << c.ParityBits()) - 1)
			fast := c.syndromes(data, parity)
			slow := c.syndromesBitwise(data, parity)
			for j := range fast {
				if fast[j] != slow[j] {
					t.Fatalf("t=%d trial=%d S%d: fast=%d slow=%d", tcap, trial, j+1, fast[j], slow[j])
				}
			}
		}
	}
}

// Differential property sweep over the whole code family: for every t in
// 1..6, extended and non-extended, the fused single-pass syndrome
// computation must agree with the bit-serial reference on random lines
// carrying random error patterns (valid codewords perturbed by 0..t+3
// flips across data and parity) and on entirely unmasked random parity
// words — the fast path can never silently diverge.
func TestSyndromeFusedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(c *Code, data line.Line, parity uint64, desc string) {
		t.Helper()
		fast := c.syndromes(data, parity)
		slow := c.syndromesBitwise(data, parity)
		for j := range fast {
			if fast[j] != slow[j] {
				t.Fatalf("%s S%d: fused=%d bitwise=%d", desc, j+1, fast[j], slow[j])
			}
		}
	}
	for tcap := 1; tcap <= 6; tcap++ {
		for _, extended := range []bool{false, true} {
			c := mustCode(t, tcap, extended)
			for trial := 0; trial < 25; trial++ {
				data := randLine(rng)
				// Random error pattern on a valid codeword.
				parity := c.Encode(data)
				nErr := rng.Intn(tcap + 4)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				check(c, cd, cp, fmt.Sprintf("t=%d ext=%v trial=%d nErr=%d", tcap, extended, trial, nErr))
				// Entirely random received word, high parity bits NOT
				// masked: both paths must ignore bits >= parityBits.
				check(c, randLine(rng), rng.Uint64(),
					fmt.Sprintf("t=%d ext=%v trial=%d random", tcap, extended, trial))
			}
		}
	}
}

// The decode hot path must be allocation-free on the clean (all-zero
// syndrome) path and on the full correction pipeline (syndromes, BM,
// Chien, recheck), for both plain and extended codes.
func TestDecodeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, extended := range []bool{false, true} {
		c := mustCode(t, 6, extended)
		data := randLine(rng)
		parity := c.Encode(data)
		cd, cp := corruptWord(rng, c, data, parity, 6)

		if n := testing.AllocsPerRun(200, func() {
			if _, res := c.Decode(data, parity); res.Uncorrectable {
				t.Fatal("clean decode flagged uncorrectable")
			}
		}); n != 0 {
			t.Errorf("ext=%v clean Decode allocates %.1f times per run, want 0", extended, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, res := c.Decode(cd, cp); res.Uncorrectable {
				t.Fatal("6-error decode flagged uncorrectable")
			}
		}); n != 0 {
			t.Errorf("ext=%v corrected Decode allocates %.1f times per run, want 0", extended, n)
		}
	}
	// The detected-uncorrectable path matters for sweeps over badly
	// decayed memories; it must not allocate either.
	c := mustCode(t, 2, false)
	data := randLine(rng)
	cd, cp := corruptWord(rng, c, data, c.Encode(data), 5)
	if _, res := c.Decode(cd, cp); res.Uncorrectable {
		if n := testing.AllocsPerRun(200, func() { c.Decode(cd, cp) }); n != 0 {
			t.Errorf("uncorrectable Decode allocates %.1f times per run, want 0", n)
		}
	}
	if n := testing.AllocsPerRun(200, func() { c.Encode(data) }); n != 0 {
		t.Errorf("Encode allocates %.1f times per run, want 0", n)
	}
}

// Batch encode/decode must agree element-for-element with the sequential
// API; run with GOMAXPROCS raised so the worker pool actually forks (and
// the race detector sees the fan-out).
func TestBatchMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(26))
	c := mustCode(t, 6, false)
	const n = 300
	datas := make([]line.Line, n)
	parities := make([]uint64, n)
	for i := range datas {
		datas[i] = randLine(rng)
	}
	c.EncodeBatch(datas, parities)
	for i := range datas {
		if want := c.Encode(datas[i]); parities[i] != want {
			t.Fatalf("EncodeBatch[%d] = %#x, want %#x", i, parities[i], want)
		}
	}
	// Corrupt a spread of error weights, including uncorrectable ones.
	bads := make([]line.Line, n)
	badPar := make([]uint64, n)
	for i := range datas {
		bads[i], badPar[i] = corruptWord(rng, c, datas[i], parities[i], i%9)
	}
	out := make([]line.Line, n)
	results := make([]Result, n)
	c.DecodeBatch(bads, badPar, out, results)
	for i := range datas {
		wantLine, wantRes := c.Decode(bads[i], badPar[i])
		if out[i] != wantLine || results[i] != wantRes {
			t.Fatalf("DecodeBatch[%d] diverges from Decode: got (%v,%+v) want (%v,%+v)",
				i, out[i], results[i], wantLine, wantRes)
		}
	}
	// In-place decode: out aliasing data must give the same results.
	c.DecodeBatch(bads, badPar, bads, results)
	for i := range datas {
		if bads[i] != out[i] {
			t.Fatalf("aliased DecodeBatch[%d] diverges", i)
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	c := mustCode(t, 6, false)
	for name, fn := range map[string]func(){
		"encode": func() { c.EncodeBatch(make([]line.Line, 3), make([]uint64, 2)) },
		"decode": func() {
			c.DecodeBatch(make([]line.Line, 3), make([]uint64, 3), make([]line.Line, 3), make([]Result, 1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkDecodeClean measures the dominant sweep case: a codeword with
// no errors (syndromes all zero, nothing after the first pass).
func BenchmarkDecodeClean(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(data, parity)
		if res.Uncorrectable || res.CorrectedBits != 0 {
			b.Fatal("clean decode failed")
		}
	}
}

// BenchmarkDecodeT6 measures the worst correctable case: six errors
// through the full syndrome/BM/Chien/recheck pipeline.
func BenchmarkDecodeT6(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	data := randLine(rng)
	parity := c.Encode(data)
	cd, cp := corruptWord(rng, c, data, parity, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := c.Decode(cd, cp)
		if res.Uncorrectable {
			b.Fatal("uncorrectable")
		}
	}
}

// BenchmarkDecodeBatchClean measures per-line cost through the batch API
// (inline on one core; fans out under higher GOMAXPROCS).
func BenchmarkDecodeBatchClean(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	const n = 1024
	datas := make([]line.Line, n)
	parities := make([]uint64, n)
	for i := range datas {
		datas[i] = randLine(rng)
	}
	c.EncodeBatch(datas, parities)
	out := make([]line.Line, n)
	results := make([]Result, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeBatch(datas, parities, out, results)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/line")
}

func BenchmarkSyndromesFast(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.syndromes(data, parity)
	}
}

func BenchmarkSyndromesBitwise(b *testing.B) {
	c, err := New(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	data := randLine(rng)
	parity := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.syndromesBitwise(data, parity)
	}
}

// TestEncodePositionalMatchesLFSR pins the position-indexed table encoder
// to the serial LFSR reference across every supported code.
func TestEncodePositionalMatchesLFSR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for tcap := 1; tcap <= MaxT; tcap++ {
		for _, ext := range []bool{false, true} {
			c := mustCode(t, tcap, ext)
			for trial := 0; trial < 50; trial++ {
				data := randLine(rng)
				if got, want := c.Encode(data), c.encodeLFSR(data); got != want {
					t.Fatalf("t=%d ext=%v: positional %#x != LFSR %#x", tcap, ext, got, want)
				}
			}
			var zero line.Line
			if got, want := c.Encode(zero), c.encodeLFSR(zero); got != want {
				t.Fatalf("t=%d ext=%v zero line: positional %#x != LFSR %#x", tcap, ext, got, want)
			}
		}
	}
}

// TestScreenCleanMatchesDecode checks the screen's contract: true exactly
// when Decode returns a zero Result (no correction, no detection).
func TestScreenCleanMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for tcap := 1; tcap <= MaxT; tcap++ {
		for _, ext := range []bool{false, true} {
			c := mustCode(t, tcap, ext)
			for trial := 0; trial < 40; trial++ {
				data := randLine(rng)
				parity := c.Encode(data)
				// Junk above the stored width must be ignored, as in Decode.
				parity |= rng.Uint64() << c.ParityBits()
				nErr := rng.Intn(tcap + 2)
				cd, cp := corruptWord(rng, c, data, parity, nErr)
				_, res := c.Decode(cd, cp)
				wantClean := res.CorrectedBits == 0 && !res.Uncorrectable
				if got := c.ScreenClean(cd, cp); got != wantClean {
					t.Fatalf("t=%d ext=%v nErr=%d: ScreenClean=%v, Decode result %+v", tcap, ext, nErr, got, res)
				}
			}
		}
	}
}

// TestScreenCleanExtensionBit: a flip confined to the extension bit must
// fail the screen (Decode reports a correction there).
func TestScreenCleanExtensionBit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := mustCode(t, 6, true)
	data := randLine(rng)
	parity := c.Encode(data)
	flipped := parity ^ (uint64(1) << c.parityBits)
	if !c.ScreenClean(data, parity) {
		t.Fatal("clean codeword failed screen")
	}
	if c.ScreenClean(data, flipped) {
		t.Fatal("extension-bit flip passed screen")
	}
}

// TestEncodeScreenZeroAllocs proves the table encoder and the screen are
// allocation-free, the property the sharded sweep relies on.
func TestEncodeScreenZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := mustCode(t, 6, true)
	data := randLine(rng)
	parity := c.Encode(data)
	if n := testing.AllocsPerRun(100, func() {
		_ = c.Encode(data)
		_ = c.ScreenClean(data, parity)
	}); n != 0 {
		t.Fatalf("Encode+ScreenClean allocate %v per run, want 0", n)
	}
}

// TestSyndromeScreenBatchMatchesScalar pins the batch screen to scalar
// ScreenClean over a mixed clean/dirty population.
func TestSyndromeScreenBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c := mustCode(t, 6, true)
	const n = 300
	datas := make([]line.Line, n)
	parities := make([]uint64, n)
	for i := range datas {
		datas[i] = randLine(rng)
		parities[i] = c.Encode(datas[i])
		if rng.Intn(3) == 0 {
			datas[i], parities[i] = corruptWord(rng, c, datas[i], parities[i], 1+rng.Intn(7))
		}
	}
	clean := make([]bool, n)
	c.SyndromeScreenBatch(datas, parities, clean)
	for i := range datas {
		if want := c.ScreenClean(datas[i], parities[i]); clean[i] != want {
			t.Fatalf("line %d: batch %v, scalar %v", i, clean[i], want)
		}
	}
}

func TestSyndromeScreenBatchLengthMismatchPanics(t *testing.T) {
	c := mustCode(t, 6, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched slice lengths")
		}
	}()
	c.SyndromeScreenBatch(make([]line.Line, 2), make([]uint64, 1), make([]bool, 2))
}

// BenchmarkSyndromeScreenBatch measures the per-line screening cost on an
// all-clean population, the common case during an upgrade sweep.
func BenchmarkSyndromeScreenBatch(b *testing.B) {
	c, err := NewExtended(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	const n = 1024
	datas := make([]line.Line, n)
	parities := make([]uint64, n)
	for i := range datas {
		datas[i] = randLine(rng)
	}
	c.EncodeBatch(datas, parities)
	clean := make([]bool, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SyndromeScreenBatch(datas, parities, clean)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/line")
}
