package huffman

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, symbols []int) {
	t.Helper()
	buf, err := Encode(symbols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(symbols) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(symbols))
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], symbols[i])
		}
	}
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []int{7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int{0, 1, 0, 0, 1, 1, 0})
}

func TestNegativeSymbolRejected(t *testing.T) {
	if _, err := Encode([]int{1, -1}); err == nil {
		t.Fatal("expected error for negative symbol")
	}
}

func TestSkewedDistribution(t *testing.T) {
	// Heavily skewed: mimics SZ quantization codes clustered at the
	// center of the radius.
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 20000)
	for i := range symbols {
		switch {
		case rng.Float64() < 0.85:
			symbols[i] = 32768
		case rng.Float64() < 0.9:
			symbols[i] = 32768 + rng.Intn(9) - 4
		default:
			symbols[i] = rng.Intn(65536)
		}
	}
	buf, err := Encode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(symbols)*2 {
		t.Fatalf("no compression on skewed input: %d bytes for %d symbols", len(buf), len(symbols))
	}
	roundTrip(t, symbols)
}

func TestLargeSparseAlphabet(t *testing.T) {
	symbols := []int{0, 1000000, 5, 1000000, 0, 42}
	roundTrip(t, symbols)
}

func TestExtremeSkewTriggersLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies create degenerate (deep) trees; the
	// coder must flatten frequencies to honor MaxCodeLen.
	var symbols []int
	f := 1
	for s := 0; s < 40; s++ {
		for i := 0; i < f && len(symbols) < 300000; i++ {
			symbols = append(symbols, s)
		}
		f = f + f/2 + 1
	}
	roundTrip(t, symbols)
}

func TestCorruptInput(t *testing.T) {
	if _, err := Decode([]byte{0xff}); err == nil {
		t.Fatal("expected error for truncated header")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Valid stream, truncated body.
	buf, err := Encode([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint16, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 2000
		alpha := int(spread)%500 + 1
		symbols := make([]int, n)
		for i := range symbols {
			symbols[i] = rng.Intn(alpha)
		}
		buf, err := Encode(symbols)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range symbols {
			if got[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingDecoderMatchesDecode is the property test for the
// streaming API: for arbitrary symbol streams, Open/next and DecodeAll
// must produce exactly what Decode produces, and a pooled decoder must
// be reusable across streams.
func TestStreamingDecoderMatchesDecode(t *testing.T) {
	d := AcquireDecoder()
	defer d.Release()
	f := func(seed int64, count uint16, spread uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 3000
		alpha := int(spread)%2000 + 1
		symbols := make([]int32, n)
		for i := range symbols {
			symbols[i] = int32(rng.Intn(alpha))
		}
		buf, err := AppendEncode(nil, symbols)
		if err != nil {
			return false
		}
		want, err := Decode(buf)
		if err != nil || len(want) != n {
			return false
		}
		// next, one symbol at a time (decoder reused across iterations).
		if err := d.Open(buf); err != nil {
			return false
		}
		if d.Count() != n {
			return false
		}
		for i := 0; i < n; i++ {
			s, err := d.next()
			if err != nil || int(s) != want[i] {
				return false
			}
		}
		if _, err := d.next(); err == nil {
			return false // reading past the declared count must fail
		}
		// DecodeAll into a reused buffer.
		if err := d.Open(buf); err != nil {
			return false
		}
		got, err := d.DecodeAll(make([]int32, 0, n))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if int(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodeMatchesEncode checks the append-style encoder against
// the allocating wrapper, including appending after a non-empty prefix.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	symbols := make([]int, 5000)
	s32 := make([]int32, len(symbols))
	for i := range symbols {
		symbols[i] = rng.Intn(300)
		s32[i] = int32(symbols[i])
	}
	want, err := Encode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xca, 0xfe}
	got, err := AppendEncode(append([]byte(nil), prefix...), s32)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("appended length %d want %d", len(got), len(prefix)+len(want))
	}
	for i := range want {
		if got[len(prefix)+i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

// TestAppendEncodeBytesMatchesEncode checks the byte-alphabet fast path
// against the generic encoder.
func TestAppendEncodeBytesMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tokens := make([]byte, 4000)
	syms := make([]int, len(tokens))
	for i := range tokens {
		tokens[i] = byte(rng.Intn(200))
		syms[i] = int(tokens[i])
	}
	want, err := Encode(syms)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendEncodeBytes(nil, tokens)
	if len(got) != len(want) {
		t.Fatalf("length %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	back, err := AcquireDecoder(), error(nil)
	defer back.Release()
	if err = back.Open(got); err != nil {
		t.Fatal(err)
	}
	dec, err := back.DecodeAllBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(tokens) {
		t.Fatalf("decoded %d tokens want %d", len(dec), len(tokens))
	}
	for i := range tokens {
		if dec[i] != tokens[i] {
			t.Fatalf("token %d: got %d want %d", i, dec[i], tokens[i])
		}
	}
}

// TestCorruptTableDeltaOverflowRejected crafts a table whose second
// symbol delta wraps prev around uint64 (5 + (2^64-4) = 1): the decoder
// must reject it rather than accept an out-of-order table that breaks
// the canonical counting sort.
func TestCorruptTableDeltaOverflowRejected(t *testing.T) {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, 2) // symbol count
	hdr = binary.AppendUvarint(hdr, 2) // table entries
	hdr = binary.AppendUvarint(hdr, 5) // symbol 5
	hdr = append(hdr, 1)
	hdr = binary.AppendUvarint(hdr, ^uint64(3)) // delta wrapping to symbol 1
	hdr = append(hdr, 1)
	buf := binary.AppendUvarint(nil, uint64(len(hdr)))
	buf = append(buf, hdr...)
	buf = append(buf, 0x40) // body: codes 0,1
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected error for delta-overflow table")
	}
	d := AcquireDecoder()
	defer d.Release()
	if err := d.Open(buf); err == nil {
		t.Fatal("expected Open error for delta-overflow table")
	}
}

func TestSymbolOutOfRangeRejected(t *testing.T) {
	if _, err := Encode([]int{1, MaxSymbol + 1}); err == nil {
		t.Fatal("expected error for symbol above MaxSymbol")
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 1<<16)
	for i := range symbols {
		symbols[i] = int(rng.NormFloat64()*4) + 32768
	}
	b.SetBytes(int64(len(symbols) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(symbols); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSkewed(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 1<<16)
	for i := range symbols {
		symbols[i] = int(rng.NormFloat64()*4) + 32768
	}
	buf, err := Encode(symbols)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(symbols) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingDecodeSkewed measures the pooled streaming decoder
// on the same workload as BenchmarkDecodeSkewed — the allocation-free
// path the SZ decompressors use.
func BenchmarkStreamingDecodeSkewed(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int32, 1<<16)
	for i := range symbols {
		symbols[i] = int32(rng.NormFloat64()*4) + 32768
	}
	buf, err := AppendEncode(nil, symbols)
	if err != nil {
		b.Fatal(err)
	}
	d := AcquireDecoder()
	defer d.Release()
	dst := make([]int32, 0, len(symbols))
	b.SetBytes(int64(len(symbols) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Open(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := d.DecodeAll(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
