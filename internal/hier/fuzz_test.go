package hier

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime/metrics"
	"testing"

	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// FuzzDecodePartialFrom feeds arbitrary bytes to the partial-sum frame
// decoder the coordinator runs on every edge upload. It must never
// panic, must fail only with ErrCorruptPartial or a short read, and
// must not allocate for lengths the input does not back: the body and
// its unpacked form are each capped at maxPartialSize, and parsing
// checks every count against the body bytes left.
func FuzzDecodePartialFrom(f *testing.F) {
	// A two-entry partial keeps the seeds small, so a short fuzz run
	// spends its time mutating rather than minimizing.
	p := &orchestrator.Partial{
		TotalWeight: 3,
		Updates:     2,
		Prior:       []byte{1, 2},
		Span:        []byte{3},
		Entries: []orchestrator.PartialEntry{
			{Name: "w", DType: model.Float32, Shape: []int{2}, Sums: []float64{0.5, -1}},
			{Name: "n", DType: model.Int64, Ints: []int64{7}},
		},
	}
	for _, opts := range []WireOptions{
		{},
		{Checksum: true},
		{Lossless: lossless.NameZstdLike},
		{Lossless: lossless.NameBloscLZ},
		{Checksum: true, Lossless: lossless.NameZlib},
	} {
		buf, err := EncodePartial(p, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	empty, err := EncodePartial(&orchestrator.Partial{}, WireOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})              // body size past the cap
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0xff}, 11)...)) // body size overflows a uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(old uint64) { maxPartialSize = old }(maxPartialSize)
		maxPartialSize = 1 << 16

		var got *orchestrator.Partial
		var err error
		grew := allocDelta(func() { got, err = DecodePartialFrom(bytes.NewReader(data)) })
		// The body copy and its unpacked form each stay under the cap
		// (an LZ codec may reserve up to 1 MiB for its output first);
		// parsing turns a 3-byte entry into a ~100-byte PartialEntry.
		if limit := 64*maxPartialSize + 1<<20 + 256*uint64(len(data)); grew > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if got != nil {
				t.Fatal("decode returned a partial with an error")
			}
			if !errors.Is(err, ErrCorruptPartial) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if math.IsNaN(got.TotalWeight) || math.IsInf(got.TotalWeight, 0) || got.TotalWeight < 0 {
			t.Fatalf("invalid total weight %v accepted", got.TotalWeight)
		}
		for _, e := range got.Entries {
			n := 1
			for _, d := range e.Shape {
				n *= d
			}
			if e.Sums != nil && len(e.Sums) != n {
				t.Fatalf("entry %q: %d sums for shape %v", e.Name, len(e.Sums), e.Shape)
			}
		}
	})
}

// allocDelta returns the heap bytes fn allocated, process-wide. It
// reads runtime/metrics rather than MemStats, which would stop the
// world twice per fuzz input.
func allocDelta(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}
