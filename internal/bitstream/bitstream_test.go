package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsBoundaries(t *testing.T) {
	tests := []struct {
		v uint64
		n uint
	}{
		{0, 0},
		{1, 1},
		{0xff, 8},
		{0x1ff, 9},
		{0xdeadbeef, 32},
		{0xffffffffffffffff, 64},
		{0x0123456789abcdef, 64},
		{5, 3},
	}
	w := NewWriter(64)
	for _, tt := range tests {
		w.WriteBits(tt.v, tt.n)
	}
	r := NewReader(w.Bytes())
	for i, tt := range tests {
		got, err := r.ReadBits(tt.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != tt.v&mask(tt.n) {
			t.Fatalf("case %d: got %#x want %#x", i, got, tt.v&mask(tt.n))
		}
	}
}

func mask(n uint) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

func TestUnary(t *testing.T) {
	w := NewWriter(8)
	values := []uint{0, 1, 2, 7, 13, 0, 31}
	for _, v := range values {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes())
	for i, want := range values {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d: got %d want %d", i, got, want)
		}
	}
}

func TestOverrun(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("in-range read: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun, got %v", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBits(1); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun on empty, got %v", err)
	}
}

func TestLenAndRemaining(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0x3, 2)
	if w.Len() != 2 {
		t.Fatalf("Len after 2 bits = %d", w.Len())
	}
	w.WriteBits(0xabcd, 16)
	if w.Len() != 18 {
		t.Fatalf("Len after 18 bits = %d", w.Len())
	}
	r := NewReader(w.Bytes())
	if r.BitsRemaining() != 24 { // padded to 3 bytes
		t.Fatalf("BitsRemaining = %d", r.BitsRemaining())
	}
	if _, err := r.ReadBits(10); err != nil {
		t.Fatal(err)
	}
	if r.BitsRemaining() != 14 {
		t.Fatalf("BitsRemaining after 10 = %d", r.BitsRemaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xff, 8)
	w.Reset()
	w.WriteBits(0x5, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0xa0 {
		t.Fatalf("after reset got %x", b)
	}
}

func TestPeekSkip(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0xabcd, 16)
	w.WriteBits(0x3f, 7)
	w.WriteBits(0x12345, 20)
	r := NewReader(w.Bytes())
	if got := r.Peek(12); got != 0xabc {
		t.Fatalf("Peek(12) = %#x want 0xabc", got)
	}
	// Peek must not consume.
	if got := r.Peek(16); got != 0xabcd {
		t.Fatalf("Peek(16) = %#x want 0xabcd", got)
	}
	if err := r.Skip(16); err != nil {
		t.Fatal(err)
	}
	if got := r.Peek(7); got != 0x3f {
		t.Fatalf("Peek(7) after skip = %#x want 0x3f", got)
	}
	if err := r.Skip(7); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(20)
	if err != nil || got != 0x12345 {
		t.Fatalf("ReadBits(20) = %#x, %v", got, err)
	}
}

func TestPeekPastEndZeroPads(t *testing.T) {
	r := NewReader([]byte{0xff})
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	// 4 bits remain (1111); a 12-bit peek must zero-pad the tail.
	if got := r.Peek(12); got != 0xf00 {
		t.Fatalf("Peek(12) = %#x want 0xf00", got)
	}
	if r.BitsRemaining() != 4 {
		t.Fatalf("BitsRemaining = %d want 4", r.BitsRemaining())
	}
}

func TestSkipOverrun(t *testing.T) {
	r := NewReader([]byte{0xaa, 0xbb})
	if err := r.Skip(17); err != ErrOverrun {
		t.Fatalf("Skip past end: got %v want ErrOverrun", err)
	}
	r2 := NewReader([]byte{0xaa, 0xbb})
	if err := r2.Skip(16); err != nil {
		t.Fatalf("Skip to exact end: %v", err)
	}
	if err := r2.Skip(1); err != ErrOverrun {
		t.Fatalf("Skip after end: got %v want ErrOverrun", err)
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xf0})
	if _, err := r.ReadBits(4); err != nil {
		t.Fatal(err)
	}
	r.Reset([]byte{0x80})
	b, err := r.ReadBit()
	if err != nil || b != 1 {
		t.Fatalf("after Reset: bit %d, %v", b, err)
	}
}

func TestWriterResetBuf(t *testing.T) {
	frame := []byte{0xde, 0xad}
	var w Writer
	w.ResetBuf(frame)
	w.WriteBits(0xbeef, 16)
	w.WriteBits(0x5, 3)
	if w.Len() != 19 {
		t.Fatalf("Len after ResetBuf+19 bits = %d (prefix must not count)", w.Len())
	}
	got := w.Bytes()
	want := []byte{0xde, 0xad, 0xbe, 0xef, 0xa0}
	if !bytes.Equal(got, want) {
		t.Fatalf("ResetBuf stream = %x want %x", got, want)
	}
}

// TestQuickSkipAgainstRead cross-checks Skip against ReadBits on random
// streams: skipping k bits and reading must equal reading k bits and
// discarding.
func TestQuickSkipAgainstRead(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%64 + 16
		buf := make([]byte, n)
		rng.Read(buf)
		a := NewReader(buf)
		b := NewReader(buf)
		for a.BitsRemaining() > 32 {
			k := uint(rng.Intn(20))
			if a.Skip(k) != nil {
				return false
			}
			if _, err := b.ReadBits(k); err != nil {
				return false
			}
			va, ea := a.ReadBits(9)
			vb, eb := b.ReadBits(9)
			if ea != nil || eb != nil || va != vb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTrip is a property-based test: any sequence of
// (value,width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%200 + 1
		type rec struct {
			v uint64
			n uint
		}
		recs := make([]rec, n)
		w := NewWriter(n)
		for i := range recs {
			width := uint(rng.Intn(65))
			v := rng.Uint64() & mask(width)
			recs[i] = rec{v, width}
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes())
		for _, rc := range recs {
			got, err := r.ReadBits(rc.n)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomCanonicalTable builds a complete canonical prefix code over n
// symbols (capped at 2^maxLen) with lengths in [1, maxLen]: it splits
// random leaves of a one-leaf tree until there are n leaves, then
// assigns codes in (length, symbol) order like a canonical Huffman
// coder.
func randomCanonicalTable(rng *rand.Rand, n int, maxLen uint8) []Code {
	if maxLen < 16 {
		n = min(n, 1<<maxLen)
	}
	lens := []uint8{0}
	for len(lens) < n {
		i := rng.Intn(len(lens))
		if lens[i] >= maxLen {
			continue
		}
		lens[i]++
		lens = append(lens, lens[i])
	}
	if n == 1 {
		lens[0] = 1
	}
	rng.Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	table := make([]Code, n)
	code, prev := uint32(0), uint8(0)
	for l := uint8(1); l <= maxLen; l++ {
		for s, sl := range lens {
			if sl != l {
				continue
			}
			code <<= l - prev
			prev = l
			table[s] = Code{Bits: code, Len: l}
			code++
		}
	}
	return table
}

// TestWriteCodesMatchesWriteBits is the differential test of the batched
// encoder: for random canonical tables with code lengths up to 30 (the
// Huffman coder's MaxCodeLen) and up to 32, after an arbitrary unaligned
// prefix, WriteCodes must emit exactly the bytes of one WriteBits call
// per symbol, for both symbol types.
func TestWriteCodesMatchesWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		maxLen := uint8(1 + rng.Intn(32))
		table := randomCanonicalTable(rng, 1+rng.Intn(256), maxLen)
		n := len(table) // at most 256, so symbols also fit a byte
		syms := make([]int32, rng.Intn(3000))
		bsyms := make([]uint8, len(syms))
		for i := range syms {
			syms[i] = int32(rng.Intn(n))
			bsyms[i] = uint8(syms[i])
		}
		prefixBits := uint(rng.Intn(64))
		prefix := rng.Uint64()

		var want Writer
		want.ResetBuf([]byte{0xAA})
		want.WriteBits(prefix, prefixBits)
		for _, s := range syms {
			want.WriteBits(uint64(table[s].Bits), uint(table[s].Len))
		}
		var got Writer
		got.ResetBuf([]byte{0xAA})
		got.WriteBits(prefix, prefixBits)
		WriteCodes(&got, table, syms)
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("iter %d (maxLen %d, %d symbols): WriteCodes diverged from WriteBits", iter, maxLen, len(syms))
		}
		var gotB Writer
		gotB.ResetBuf([]byte{0xAA})
		gotB.WriteBits(prefix, prefixBits)
		WriteCodes(&gotB, table, bsyms)
		if !bytes.Equal(gotB.Bytes(), want.Bytes()) {
			t.Fatalf("iter %d: byte-symbol WriteCodes diverged from WriteBits", iter)
		}
	}
}

// TestReadTableDecodesPrefix checks the block decoder on streams of
// random canonical codes with lengths on both sides of TableBits, after
// an unaligned start and with uneven block sizes: every call must
// return the stream's next symbols and leave the reader just past their
// codes, and it may stop short of a full block only where the table
// cannot continue — at a code longer than TableBits, or with fewer than
// TableBits bits left. The reader then still reads the rest of the
// stream bit-exactly.
func TestReadTableDecodesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		table := randomCanonicalTable(rng, 1+rng.Intn(200), uint8(1+rng.Intn(16)))
		var lut Table
		for s, c := range table {
			if c.Len > TableBits {
				continue
			}
			base := c.Bits << (TableBits - c.Len)
			for f := uint32(0); f < 1<<(TableBits-c.Len); f++ {
				lut[base|f] = Entry{Sym: int32(s), Len: c.Len}
			}
		}
		lut.Pair()
		syms := make([]int32, rng.Intn(2000))
		for i := range syms {
			syms[i] = int32(rng.Intn(len(table)))
		}
		skip := uint(rng.Intn(8))
		var w Writer
		w.WriteBits(0, skip)
		WriteCodes(&w, table, syms)
		r := NewReader(w.Bytes())
		if err := r.Skip(skip); err != nil {
			t.Fatal(err)
		}
		left := r.BitsRemaining()

		dst := make([]int32, len(syms))
		got := 0
		for got < len(syms) {
			end := min(len(syms), got+1+rng.Intn(300))
			k := r.ReadTable(&lut, dst[got:end])
			for i := got; i < got+k; i++ {
				if dst[i] != syms[i] {
					t.Fatalf("iter %d: symbol %d = %d, want %d", iter, i, dst[i], syms[i])
				}
				left -= int(table[syms[i]].Len)
			}
			got += k
			if r.BitsRemaining() != left {
				t.Fatalf("iter %d: %d bits left after %d symbols, want %d", iter, r.BitsRemaining(), got, left)
			}
			if got < end {
				if next := table[syms[got]]; next.Len <= TableBits && left >= TableBits {
					t.Fatalf("iter %d: stopped at symbol %d (code length %d, %d bits left)", iter, got, next.Len, left)
				}
				// Finish this code bit by bit, as a caller's slow path would.
				c := table[syms[got]]
				v, err := r.ReadBits(uint(c.Len))
				if err != nil || v != uint64(c.Bits) {
					t.Fatalf("iter %d: code %d after a stop reads %#x (%v), want %#x", iter, got, v, err, c.Bits)
				}
				left -= int(c.Len)
				dst[got] = syms[got]
				got++
			}
		}
	}
}
