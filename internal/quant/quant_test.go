package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeWithinBound(t *testing.T) {
	q := New(0.01, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		pred := rng.NormFloat64()
		val := pred + rng.NormFloat64()*0.5
		code, recon, ok := q.Encode(val, pred)
		if !ok {
			continue
		}
		if got := q.Decode(code, pred); got != recon {
			t.Fatalf("decode mismatch: %v vs %v", got, recon)
		}
		if math.Abs(recon-val) > 0.01*(1+1e-9) {
			t.Fatalf("bound violated: |%v-%v| = %v", recon, val, math.Abs(recon-val))
		}
	}
}

func TestUnpredictable(t *testing.T) {
	q := New(1e-6, 4)
	if _, _, ok := q.Encode(1.0, 0.0); ok {
		t.Fatal("expected unpredictable for huge error with tiny radius")
	}
	if _, _, ok := q.Encode(math.NaN(), 0.0); ok {
		t.Fatal("expected unpredictable for NaN")
	}
}

func TestZeroErrorIsCodeZero(t *testing.T) {
	q := New(0.5, 0)
	code, recon, ok := q.Encode(3.25, 3.25)
	if !ok || code != 0 || recon != 3.25 {
		t.Fatalf("got code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eb <= 0")
		}
	}()
	New(0, 0)
}

func TestDefaults(t *testing.T) {
	q := New(0.1, 0)
	if q.Radius() != DefaultRadius {
		t.Fatalf("radius = %d", q.Radius())
	}
	if q.Bound() != 0.1 {
		t.Fatalf("bound = %v", q.Bound())
	}
}

// Property: for any (val, pred) pair, either the value is flagged
// unpredictable or the round-trip honors the bound exactly.
func TestQuickBoundInvariant(t *testing.T) {
	q := New(0.003, 0)
	f := func(val, pred float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
			return true
		}
		code, recon, ok := q.Encode(val, pred)
		if !ok {
			return true
		}
		if q.Decode(code, pred) != recon {
			return false
		}
		return math.Abs(recon-val) <= 0.003*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// refEncode is the original quantizer, kept as the reference Encode
// and Step must match: math.Round, then the radius/NaN test, then the
// ε·(1+1e-9) reconstruction guard.
func refEncode(eb float64, radius int, val, pred float64) (code int, recon float64, ok bool) {
	step := 2 * eb
	c := math.Round((val - pred) / step)
	if math.Abs(c) > float64(radius) || math.IsNaN(c) {
		return 0, 0, false
	}
	code = int(c)
	recon = pred + float64(code)*step
	if math.Abs(recon-val) > eb*(1+1e-9) {
		return 0, 0, false
	}
	return code, recon, true
}

// refStep is the encode sequence the float32 codecs used before Step:
// refEncode, float32 demotion, the ε re-check, then code+radius+1.
func refStep(eb float64, radius int, val, pred float64) (int32, float64) {
	code, r, ok := refEncode(eb, radius, val, pred)
	if !ok {
		return 0, 0
	}
	r = float64(float32(r))
	if math.Abs(r-val) > eb {
		return 0, 0
	}
	return int32(code + radius + 1), r
}

// adversarialPairs returns (val, pred) pairs around the quantizer's
// decision edges for bound eb and the given radius: exact half-step
// ties, codes at ±radius and ±(radius+1), values one ulp either side of
// those edges, subnormals, infinities and NaN.
func adversarialPairs(eb float64, radius int, rng *rand.Rand) [][2]float64 {
	step := 2 * eb
	preds := []float64{0, math.Copysign(0, -1), 1, -3.75, 1e6, -1e-3, float64(float32(0.1)), math.SmallestNonzeroFloat64, 1e300}
	var mults []float64
	for _, k := range []float64{0, 0.5, 1.5, 2.5, 7.5, 1e3 + 0.5, float64(radius), float64(radius) + 0.5, float64(radius) + 1, float64(radius) - 0.5} {
		mults = append(mults, k, -k, math.Nextafter(k, math.Inf(1)), math.Nextafter(k, math.Inf(-1)))
	}
	var pairs [][2]float64
	for _, p := range preds {
		for _, m := range mults {
			v := p + m*step
			pairs = append(pairs, [2]float64{v, p}, [2]float64{math.Nextafter(v, math.Inf(1)), p}, [2]float64{math.Nextafter(v, math.Inf(-1)), p})
			// The float32 codecs see float32 values.
			pairs = append(pairs, [2]float64{float64(float32(v)), p})
		}
	}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat32, 1e-39, math.MaxFloat64, -math.MaxFloat64,
		math.MaxFloat32, eb, -eb, step, 0.5 * step,
	}
	for _, a := range specials {
		for _, b := range specials {
			pairs = append(pairs, [2]float64{a, b})
		}
	}
	for i := 0; i < 20000; i++ {
		p := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		v := p + (rng.Float64()*2-1)*step*float64(radius)*1.01
		pairs = append(pairs, [2]float64{v, p}, [2]float64{float64(float32(v)), float64(float32(p))})
	}
	return pairs
}

// sameRecon compares reconstructions as values, with NaN equal to NaN.
// The sign of a zero reconstruction may differ (code 0 comes out of
// the kernels as -0 for a negative difference, so pred -0 gives -0 where
// the original gave +0); a zero's sign cannot change any later code, as
// val-(±0) and ±0·2ε differ only in the sign of a zero.
func sameRecon(a, b float64) bool {
	return a == b || a != a && b != b
}

// TestStepMatchesEncode is the differential test of the quantizer
// kernels: Encode must agree with the original math.Round quantizer,
// and Step with the original Encode → float32 demotion → ε re-check →
// +radius+1 sequence (its reconstruction only for a nonzero symbol), on
// every adversarial input, for ordinary, tiny, huge and infinite bounds
// and a small radius.
func TestStepMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := []float64{0.01, 1e-3, 0.3, 1e-30, 1e-300, 5e-324, 1e300, math.Inf(1)}
	for _, radius := range []int{DefaultRadius, 4} {
		for _, eb := range bounds {
			q := New(eb, radius)
			for _, vp := range adversarialPairs(eb, radius, rng) {
				val, pred := vp[0], vp[1]
				wc, wr, wok := refEncode(eb, radius, val, pred)
				gc, gr, gok := q.Encode(val, pred)
				if gc != wc || gok != wok || !sameRecon(gr, wr) {
					t.Fatalf("eb=%g radius=%d Encode(%v, %v) = (%d, %v, %v), want (%d, %v, %v)",
						eb, radius, val, pred, gc, gr, gok, wc, wr, wok)
				}
				ws, wrf := refStep(eb, radius, val, pred)
				gs, grf := q.Step(val, pred)
				if gs != ws || gs != 0 && !sameRecon(grf, wrf) {
					t.Fatalf("eb=%g radius=%d Step(%v, %v) = (%d, %v), want (%d, %v)",
						eb, radius, val, pred, gs, grf, ws, wrf)
				}
			}
		}
	}
}
