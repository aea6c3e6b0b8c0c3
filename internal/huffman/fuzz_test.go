package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"fedsz/internal/bitstream"
)

// FuzzHuffmanDecode drives the streaming decoder with arbitrary bytes
// (CI runs it for 10s per PR): it must never panic or over-allocate,
// and on streams it accepts, the legacy Decode and the streaming
// DecodeAll must agree symbol-for-symbol.
func FuzzHuffmanDecode(f *testing.F) {
	// Seed corpus: valid streams of each encoder shape plus structural
	// mutations of them.
	rng := rand.New(rand.NewSource(9))
	skew := make([]int32, 4000)
	for i := range skew {
		skew[i] = int32(rng.NormFloat64()*4) + 32768
	}
	valid, err := AppendEncode(nil, skew)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	tokens := make([]byte, 1000)
	rng.Read(tokens)
	f.Add(AppendEncodeBytes(nil, tokens))
	single, _ := Encode([]int{5, 5, 5})
	f.Add(single)
	empty, _ := Encode(nil)
	f.Add(empty)
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	mangled := append([]byte(nil), valid...)
	mangled[0] ^= 0xff
	f.Add(mangled)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-exec work; structure, not size, is under test
		}
		want, wantErr := Decode(data)
		d := AcquireDecoder()
		defer d.Release()
		if err := d.Open(data); err != nil {
			if wantErr == nil {
				t.Fatalf("Open rejected a stream Decode accepted: %v", err)
			}
			return
		}
		got, gotErr := d.DecodeAll(nil)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("streaming error %v, Decode error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("streaming decoded %d symbols, Decode %d", len(got), len(want))
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("symbol %d: streaming %d, Decode %d", i, got[i], want[i])
			}
		}
		// Accepted streams must re-encode losslessly (not byte-identical:
		// the original may carry a non-canonical but valid table).
		re, err := AppendEncode(nil, got)
		if err != nil {
			t.Fatalf("re-encode of decoded symbols failed: %v", err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		for i := range back {
			if back[i] != want[i] {
				t.Fatalf("re-encode round trip diverged at %d", i)
			}
		}
		_ = bytes.Equal(re, data)
	})
}

// errClass buckets a decode error into the classes Fill must reproduce.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, errCorrupt):
		return "corrupt"
	case errors.Is(err, bitstream.ErrOverrun):
		return "overrun"
	case errors.Is(err, errExhausted):
		return "exhausted"
	}
	return "other: " + err.Error()
}

// FuzzHuffmanFill checks the block decoder against the symbol-at-a-time
// reference on arbitrary bytes (CI runs it for 10s per PR): for every
// stream Open accepts, Fill must return the symbols a next loop returns
// up to the first error, the same error class after them, and never
// panic — including when it is asked for more symbols than the stream
// declares and when the request is split into uneven blocks.
func FuzzHuffmanFill(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	skew := make([]int32, 3000)
	for i := range skew {
		skew[i] = int32(rng.NormFloat64()*4) + 32768
	}
	valid, err := AppendEncode(nil, skew)
	if err != nil {
		f.Fatal(err)
	}
	// Wide alphabet: codes longer than the fast table.
	wide := make([]int32, 3000)
	for i := range wide {
		wide[i] = int32(rng.ExpFloat64() * 300)
	}
	long, err := AppendEncode(nil, wide)
	if err != nil {
		f.Fatal(err)
	}
	tokens := make([]byte, 800)
	rng.Read(tokens)
	// A body with bytes past its declared count must not leak extra
	// symbols into a request longer than the count.
	trailing := append(append([]byte(nil), valid...), 0x00, 0x55, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc)
	for _, seed := range [][]byte{valid, long, trailing, AppendEncodeBytes(nil, tokens), valid[:len(valid)*2/3], long[:len(long)-3]} {
		f.Add(seed, uint16(0), uint8(0))
		f.Add(seed, uint16(17), uint8(128))
	}
	f.Add([]byte{0x02, 0x00, 0x01, 0x00}, uint16(3), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, extra uint16, block uint8) {
		if len(data) > 1<<16 {
			return // bound per-exec work; structure, not size, is under test
		}
		ref, d := AcquireDecoder(), AcquireDecoder()
		defer ref.Release()
		defer d.Release()
		if ref.Open(data) != nil {
			return
		}
		if err := d.Open(data); err != nil {
			t.Fatalf("second Open of the same stream failed: %v", err)
		}
		n := ref.Count() + int(extra)%64 // may ask past the declared count
		var want []int32
		var wantErr error
		for len(want) < n {
			s, err := ref.next()
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, s)
		}

		dst := make([]int32, n)
		got, bs := 0, int(block)%160+1
		var gotErr error
		for got < n {
			k, err := d.Fill(dst[got:min(n, got+bs)])
			got += k
			if err != nil {
				gotErr = err
				break
			}
		}
		if got != len(want) {
			t.Fatalf("Fill decoded %d symbols (err %v), next loop %d (err %v)", got, gotErr, len(want), wantErr)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("symbol %d: Fill %d, next %d", i, dst[i], want[i])
			}
		}
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("Fill error %v, next loop error %v", gotErr, wantErr)
		}
	})
}
