// Package quant implements the error-bounded linear quantizer shared by
// the prediction-based compressors (SZ2, SZ3).
//
// Prediction errors are mapped onto integer codes with step 2ε, which
// guarantees that the reconstructed value differs from the original by
// at most ε (the absolute error bound). Codes outside the configured
// radius mark the value "unpredictable"; such values are stored
// verbatim by the caller.
package quant

import "math"

// DefaultRadius matches SZ's default 2^15 quantization intervals to
// either side of zero.
const DefaultRadius = 32768

// Quantizer maps prediction errors to integer codes with a fixed
// absolute error bound.
type Quantizer struct {
	eb     float64 // absolute error bound (half step)
	step   float64 // 2*eb
	guard  float64 // eb*(1+1e-9): tolerance of the float64 reconstruction check
	lim    float64 // radius+0.5: |diff/step| below this rounds to |code| <= radius
	off    int32   // radius+1: wire symbol of code 0
	radius int
}

// New returns a Quantizer with absolute bound eb > 0 and the given
// radius (maximum |code|). A non-positive radius selects DefaultRadius.
func New(eb float64, radius int) Quantizer {
	if eb <= 0 {
		panic("quant: error bound must be positive")
	}
	if radius <= 0 {
		radius = DefaultRadius
	}
	return Quantizer{
		eb:     eb,
		step:   2 * eb,
		guard:  eb * (1 + 1e-9),
		lim:    float64(radius) + 0.5,
		off:    int32(radius + 1),
		radius: radius,
	}
}

// Bound returns the absolute error bound.
func (q Quantizer) Bound() float64 { return q.eb }

// Radius returns the maximum code magnitude.
func (q Quantizer) Radius() int { return q.radius }

// Encode quantizes the difference between val and pred. It returns the
// integer code, the reconstructed value pred+code·2ε, and whether the
// value was quantizable. When ok is false the caller must store val
// exactly.
//
// The code is diff/2ε rounded half away from zero (math.Round). A
// value is not quantizable when that code exceeds the radius or is
// NaN, or when floating-point rounding pushed the reconstruction
// further than ε·(1+1e-9) from val.
func (q Quantizer) Encode(val, pred float64) (code int, recon float64, ok bool) {
	x := (val - pred) / q.step
	// For |x| < 2^52, 2x−trunc(x) = x+frac(x) is exact, and truncating
	// it adds one away from zero exactly when |frac(x)| ≥ 0.5: math.Round
	// in two truncations, each one instruction on amd64 (SSE4.1) and
	// arm64. Out-of-range and non-finite x fail the range test below.
	c := math.Trunc(2*x - math.Trunc(x))
	recon = pred + c*q.step
	// x < lim && -x < lim also rejects NaN; a NaN reconstruction passes
	// the guard, as it does with math.Abs.
	if x < q.lim && -x < q.lim && !(recon-val > q.guard || val-recon > q.guard) {
		return int(c), recon, true
	}
	return 0, 0, false
}

// Step is the encode kernel of the float32 prediction codecs (sz2,
// sz3 and the pred family). It returns the wire symbol for val against
// pred — 0 for a value the caller must store verbatim, otherwise
// code+radius+1 — and the reconstruction the decoder will produce,
// rounded to float32 (unspecified when the symbol is 0). It runs
// Encode's checks in Encode's order, then demotes to an outlier any
// value whose float32-rounded reconstruction is further than ε from
// val. The radius must be below 2^30, so that every symbol fits an
// int32.
//
// Step repeats Encode's arithmetic instead of calling it so that it
// stays within the compiler's inlining budget (check with
// go build -gcflags=-m); max(d, -d) is |d|, and NaN for a NaN d, so
// the checks keep math.Abs's NaN behaviour. TestStepMatchesEncode
// holds Step and Encode to the original quantizer.
func (q Quantizer) Step(val, pred float64) (sym int32, recon float64) {
	x := (val - pred) / q.step
	c := math.Trunc(2*x - math.Trunc(x))
	r := pred + c*q.step
	if recon = float64(float32(r)); max(x, -x) < q.lim && !(max(r-val, val-r) > q.guard || max(recon-val, val-recon) > q.eb) {
		sym = int32(c) + q.off
	}
	return sym, recon
}

// Decode reconstructs a value from its code and prediction.
func (q Quantizer) Decode(code int, pred float64) float64 {
	return pred + float64(code)*q.step
}
