package family

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
)

// predGoldenData builds a deterministic gradient-like tensor: smooth
// magnitudes with near-independent sign flips, heavy-tailed spikes, and
// a sprinkling of values the quantizer treats specially (zeros of both
// signs and subnormals; with nonFinite, also infinities and NaN).
func predGoldenData(n int, nonFinite bool) []float32 {
	rng := rand.New(rand.NewSource(13))
	data := make([]float32, n)
	special := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, 1e-39,
	}
	if nonFinite {
		special = append(special, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
	}
	for i := range data {
		mag := 0.02 + 0.01*math.Sin(float64(i)/50) + math.Abs(rng.NormFloat64())*0.004
		if rng.Float64() < 0.003 {
			mag *= 1e3
		}
		v := float32(mag)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if rng.Float64() < 0.001 {
			v = special[rng.Intn(len(special))]
		}
		data[i] = v
	}
	return data
}

// TestPredGoldenBitstream pins the pred family's wire format: it shares
// the error-bounded quantizer and the Huffman stage with sz2/sz3, so
// any change to those kernels must leave these streams byte-identical.
// The hashes were recorded from the original per-element quantizer and
// Huffman paths.
func TestPredGoldenBitstream(t *testing.T) {
	cases := []struct {
		name      string
		nonFinite bool
		p         lossy.Params
		size      int
		hash      string
	}{
		{"rel1e2", false, lossy.RelBound(1e-2), 7697, "b38b8ab1a51f9aff0fcbbe91714a57c1ece0f73b9c3a7f2c49bce6f725c63bc5"},
		{"rel1e4", false, lossy.RelBound(1e-4), 8958, "4e7506c5b8fc2bcc4d0b3bd6324964e287459491fd0f902fc6f924c8969dc911"},
		{"abs1e3_nonfinite", true, lossy.AbsBound(1e-3), 15567, "fb1a6e9ca432ce1361e14230de269edbb7de1979118b9d21915a0fffbbcfcc30"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := predGoldenData(30000, tc.nonFinite)
			got, err := pred{}.Compress(data, tc.p)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			sum := sha256.Sum256(got)
			if h := hex.EncodeToString(sum[:]); len(got) != tc.size || h != tc.hash {
				t.Fatalf("stream diverged from golden wire format: %d bytes sha256 %s, want %d bytes %s", len(got), h, tc.size, tc.hash)
			}
			dec, err := pred{}.Decompress(got)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if len(dec) != len(data) {
				t.Fatalf("decoded %d values, want %d", len(dec), len(data))
			}
			if tc.nonFinite {
				return // MaxAbsError is undefined on NaN/Inf inputs
			}
			eb, err := tc.p.Resolve(data)
			if err != nil {
				t.Fatal(err)
			}
			if e := lossy.MaxAbsError(data, dec); e > eb {
				t.Fatalf("decode error %g exceeds bound %g", e, eb)
			}
		})
	}
}
