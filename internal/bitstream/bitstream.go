// Package bitstream provides MSB-first bit-level readers and writers.
//
// It is the shared bit-I/O layer for the entropy coders (Huffman), the
// ZFP embedded bitplane coder and the SZx truncation coder. Bits are
// packed most-significant-bit first within each byte, which keeps the
// encoded streams byte-order independent and easy to inspect.
//
// # Streaming hot path
//
// Both Reader and Writer run on a 64-bit accumulator with bulk
// refill/flush: the Writer emits whole 8-byte words once the
// accumulator fills, and the Reader loads 8 bytes at a time, so the
// per-bit cost of the entropy stage is a couple of shifts rather than a
// byte-indexed loop. The entropy coders do not go through a call per
// symbol: WriteCodes writes a whole symbol slice through a prefix-code
// table, and Reader.ReadTable decodes symbols through a Table indexed
// by the next TableBits bits — two per lookup where both codes fit —
// each with the accumulator held in locals for the whole loop.
// ReadTable stops at a slot it cannot resolve and near the end of the
// stream; the caller finishes those symbols with Peek, which returns
// the next n bits without consuming them (zero-padded past the end of
// the stream), and Skip or ReadBit. Writers can also be pointed at a
// caller-owned buffer with ResetBuf, which is what the allocation-free
// AppendEncode paths in the huffman package build on.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverrun is returned by Reader methods when a read extends past the
// end of the underlying buffer.
var ErrOverrun = errors.New("bitstream: read past end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	base int    // bytes already in buf when writing started (ResetBuf)
	acc  uint64 // pending bits, right-aligned in the low nAcc bits
	nAcc uint   // number of pending bits (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint
// bytes of output.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b), 1)
}

// WriteBits appends the n low-order bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if w.nAcc+n < 64 {
		w.acc = w.acc<<n | v
		w.nAcc += n
		return
	}
	// The accumulator reaches (or passes) 64 bits: top it up to exactly
	// 64 and flush the full word big-endian, keeping the remainder.
	take := 64 - w.nAcc
	rem := n - take
	full := w.acc<<take | v>>rem
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], full)
	w.buf = append(w.buf, b[:]...)
	if rem == 0 {
		w.acc, w.nAcc = 0, 0
		return
	}
	w.acc = v & (1<<rem - 1)
	w.nAcc = rem
}

// WriteUnary appends v as a unary code: v one-bits followed by a zero.
func (w *Writer) WriteUnary(v uint) {
	for v >= 63 {
		w.WriteBits(1<<63-1, 63)
		v -= 63
	}
	w.WriteBits(1<<(v+1)-2, v+1)
}

// Code is one entry of a prefix-code table: the Len low bits of Bits,
// written most significant first. Len is at most 32 and no bit of
// Bits above Len is set.
type Code struct {
	Bits uint32
	Len  uint8
}

// WriteCodes appends table[s] for every symbol s in syms: the same bits
// as one WriteBits call per symbol, with the accumulator kept in locals
// and flushed a 64-bit word at a time. Every symbol must index table.
func WriteCodes[S int32 | uint8](w *Writer, table []Code, syms []S) {
	acc, n, buf := w.acc, w.nAcc, w.buf
	for _, s := range syms {
		c := table[s]
		l := uint(c.Len)
		if n+l < 64 {
			acc = acc<<l | uint64(c.Bits)
			n += l
			continue
		}
		// Top the accumulator up to exactly 64 bits and flush it; the
		// code's rem low bits stay pending (bits of acc above the low n
		// are never read, so the flushed ones need no clearing).
		rem := n + l - 64
		buf = binary.BigEndian.AppendUint64(buf, acc<<(64-n)|uint64(c.Bits)>>rem)
		acc = uint64(c.Bits)
		n = rem
	}
	w.acc, w.nAcc, w.buf = acc, n, buf
}

// Len returns the number of bits written so far (excluding any prefix
// handed to ResetBuf).
func (w *Writer) Len() int { return (len(w.buf)-w.base)*8 + int(w.nAcc) }

// Bytes flushes the final partial byte (zero-padded) and returns the
// encoded stream. The Writer remains usable; subsequent writes continue
// from the unflushed state, so call Bytes only once, when done.
func (w *Writer) Bytes() []byte {
	out := w.buf
	acc, n := w.acc, w.nAcc
	for n >= 8 {
		n -= 8
		out = append(out, byte(acc>>n))
	}
	if n > 0 {
		out = append(out, byte(acc<<(8-n)))
	}
	return out
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.base = 0
	w.acc, w.nAcc = 0, 0
}

// ResetBuf clears the writer and directs subsequent output into buf
// (appending after its current length). Bytes then returns buf extended
// with the stream, which lets callers assemble a bit stream directly
// into a larger frame without an intermediate copy. The Writer keeps no
// reference to its previous buffer.
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.base = len(buf)
	w.acc, w.nAcc = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
//
// The zero value reads an empty stream; use NewReader or Reset to
// attach a buffer. Reader is a small value type: embedding it avoids an
// allocation per decode.
type Reader struct {
	buf  []byte
	pos  int    // next byte to load into the accumulator
	acc  uint64 // upcoming bits, left-aligned (top nAcc bits valid, rest zero)
	nAcc uint   // valid bits in acc (0..64)
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// the caller must not mutate it while reading.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the Reader at buf, rewinding all state.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc, r.nAcc = 0, 0
}

// refill tops the accumulator up from the buffer: a single 8-byte load
// when the accumulator is empty and 8 bytes remain, byte-at-a-time
// otherwise. Bits below the valid window stay zero.
func (r *Reader) refill() {
	if r.nAcc == 0 && r.pos+8 <= len(r.buf) {
		r.acc = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.nAcc = 64
		r.pos += 8
		return
	}
	for r.nAcc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nAcc)
		r.nAcc += 8
		r.pos++
	}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nAcc == 0 {
		r.refill()
		if r.nAcc == 0 {
			return 0, ErrOverrun
		}
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.nAcc--
	return b, nil
}

// ReadBits reads n bits (n in [0,64]) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d out of range", n)
	}
	if n <= r.nAcc {
		v := r.acc >> (64 - n)
		r.acc <<= n
		r.nAcc -= n
		return v, nil
	}
	var v uint64
	for got := uint(0); got < n; {
		if r.nAcc == 0 {
			r.refill()
			if r.nAcc == 0 {
				return 0, ErrOverrun
			}
		}
		take := n - got
		if take > r.nAcc {
			take = r.nAcc
		}
		v = v<<take | r.acc>>(64-take)
		r.acc <<= take
		r.nAcc -= take
		got += take
	}
	return v, nil
}

// Peek returns the next n bits (n in [0,56]) without consuming them,
// right-aligned. Peeking past the end of the stream is not an error:
// the missing low bits read as zero, which lets a table-driven decoder
// probe a full index width near the tail and validate the matched code
// length against BitsRemaining afterwards.
func (r *Reader) Peek(n uint) uint64 {
	if n > 56 {
		panic(fmt.Sprintf("bitstream: Peek n=%d out of range", n))
	}
	if r.nAcc < n {
		r.refill()
	}
	return r.acc >> (64 - n)
}

// Skip consumes n bits, returning ErrOverrun (with the stream left at
// its end) if fewer remain.
func (r *Reader) Skip(n uint) error {
	if n <= r.nAcc {
		r.acc <<= n
		r.nAcc -= n
		return nil
	}
	n -= r.nAcc
	r.acc, r.nAcc = 0, 0
	if whole := int(n / 8); whole > 0 {
		if whole > len(r.buf)-r.pos {
			r.pos = len(r.buf)
			return ErrOverrun
		}
		r.pos += whole
	}
	if rem := n % 8; rem > 0 {
		r.refill()
		if r.nAcc < rem {
			return ErrOverrun
		}
		r.acc <<= rem
		r.nAcc -= rem
	}
	return nil
}

// TableBits is the index width of a Table.
const TableBits = 10

// Table is a prefix-code lookup table indexed by the next TableBits
// bits of a stream. Slot j holds the symbol whose code those bits start
// with and the code's length; Len 0 marks a slot the table cannot
// resolve, such as the prefix of a code longer than TableBits. Set the
// single-code slots, then call Pair before decoding through the table.
type Table [1 << TableBits]Entry

// Entry is one Table slot.
type Entry struct {
	Sym  int32 // symbol of the code the slot's bits start with
	Sym2 int32 // symbol of the next code when N is 2
	Len  uint8 // 0, or the first code's length in [1, TableBits]
	Bits uint8 // bits the slot's N codes take (set by Pair)
	N    uint8 // codes decoded per lookup, 1 or 2 (set by Pair)
}

// Pair completes a table whose slots hold Sym and Len: every slot
// whose first code leaves room, within the TableBits index bits, for a
// whole second code records that code too, so one lookup decodes two
// symbols.
func (t *Table) Pair() {
	for j := range t {
		e := &t[j]
		e.Sym2, e.Bits, e.N = 0, e.Len, 1
		if e.Len == 0 {
			continue
		}
		// The second code starts at the bits after the first; it fits
		// when its length is at most the bits left in the index.
		next := t[j<<e.Len&(len(t)-1)]
		if next.Len != 0 && next.Len <= TableBits-e.Len {
			e.Sym2, e.Bits, e.N = next.Sym, e.Len+next.Len, 2
		}
	}
}

// ReadTable decodes the stream's next symbols into dst through t, one
// or two per lookup, and returns how many it decoded; it may overwrite
// dst beyond that count. It consumes exactly their codes and stops
// when dst is full, at a slot with Len 0, or once fewer than TableBits
// bits remain, so the caller can finish long codes and the stream's
// tail with Peek, Skip and ReadBit.
func (r *Reader) ReadTable(t *Table, dst []int32) int {
	acc, n, pos, buf := r.acc, r.nAcc, r.pos, r.buf
	i := 0
	for i < len(dst) {
		if n < TableBits {
			if len(buf)-pos >= 8 {
				// One 8-byte load: keep the k whole bytes that fit below
				// the n valid bits, so the bits under the window stay 0.
				k := (63 - n) >> 3
				w := binary.BigEndian.Uint64(buf[pos:])
				acc |= (w &^ (^uint64(0) >> (8 * k & 63))) >> (n & 63)
				n += 8 * k
				pos += int(k)
			} else {
				for n <= 56 && pos < len(buf) {
					acc |= uint64(buf[pos]) << (56 - n)
					n += 8
					pos++
				}
				if n < TableBits {
					break
				}
			}
		}
		e := &t[acc>>(64-TableBits)]
		if e.Len == 0 {
			break
		}
		if i+1 == len(dst) {
			// Room for one symbol: take the first code only.
			dst[i] = e.Sym
			acc <<= e.Len & 63
			n -= uint(e.Len)
			i++
			break
		}
		dst[i], dst[i+1] = e.Sym, e.Sym2
		acc <<= e.Bits & 63
		n -= uint(e.Bits)
		i += int(e.N)
	}
	r.acc, r.nAcc, r.pos = acc, n, pos
	return i
}

// ReadUnary reads a unary code written by WriteUnary.
func (r *Reader) ReadUnary() (uint, error) {
	var v uint
	for {
		if r.nAcc == 0 {
			r.refill()
			if r.nAcc == 0 {
				return 0, ErrOverrun
			}
		}
		// Leading ones of acc = leading zeros of ^acc. Bits beyond the
		// valid window are zero in acc, so a window of all ones yields
		// ones >= nAcc and the scan continues into the next refill.
		ones := uint(bits.LeadingZeros64(^r.acc))
		if ones >= r.nAcc {
			v += r.nAcc
			r.acc, r.nAcc = 0, 0
			continue
		}
		v += ones
		r.acc <<= ones + 1
		r.nAcc -= ones + 1
		return v, nil
	}
}

// BitsRemaining reports how many bits are left in the stream.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nAcc)
}
