// Package hier is the hierarchical edge-aggregation subsystem: the
// pieces that let intermediate nodes fold their region's client
// uplinks through the streaming sharded orchestrator.Aggregator and
// forward ONE partial sum upstream, so a coordinator's fan-in is the
// number of regions, not the number of clients.
//
// The subsystem leans on the unnormalized-sum/total FedAvg arithmetic
// of package orchestrator: a region's partial state is Σ wᵢ·updateᵢ
// plus Σ wᵢ, which composes exactly — the raw float64 sum bits travel
// upstream (MsgPartialSum), the upstream fold adds them verbatim, and
// integer sample-count weights sum exactly in float64. A 2-tier
// aggregation therefore commits the same global model as a flat one
// (byte-identical after the float32 projection; see the equivalence
// tests).
//
// This file defines the MsgPartialSum wire format:
//
//	u8      flags (bit0: CRC32C trailer, bit1: lossless-packed body)
//	[flags bit1] uvarint len + lossless codec name
//	uvarint wire body length
//	body    (lossless-compressed when packed)
//	[flags bit0] u32 BE CRC32C over the wire body bytes
//
// and the body, all integers big-endian:
//
//	uvarint updates (client-level contributions)
//	u64     totalWeight (float64 bits)
//	uvarint entry count
//	per entry: uvarint len + name, u8 dtype,
//	           Float32: uvarint ndim + uvarint dims…, raw u64 sums
//	           Int64:   uvarint n, u64 values
//	uvarint prior length + plan-prior blob
//	[optional] uvarint span length + span-summary blob (package obs)
//
// The span-summary tail is the cross-tier tracing hook: encoders that
// trace append it after the prior, decoders that predate it stop at
// the prior and ignore the tail (parseBody never required the body to
// be exhausted), and new decoders treat a body that ends at the prior
// as "no span" — so mixed-version tiers interoperate in both
// directions.
//
// The trailer is verified BEFORE any fold (the frame is materialized
// at the upstream hop — partial frames arrive once per region, not
// once per client), so a corrupt region frame quarantines via the
// typed drop path without ever touching the sums. Raw float64 bits —
// never a lossy re-encode — keep the tier byte-exact; the optional
// lossless packing recovers most of the float32→float64 inflation on
// the contended WAN hop without breaking exactness.
package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"fedsz/internal/core"
	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// Wire-format limits and flags.
const (
	flagChecksum = 1 << 0
	flagPacked   = 1 << 1

	// MaxPartialSize bounds a partial-sum body (1 GiB) — both the wire
	// bytes and the unpacked output of a packed frame — to fail fast on
	// corruption.
	MaxPartialSize = 1 << 30
)

// crcTable is the CRC32C (Castagnoli) table, matching the checked
// update frames of package core.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxPartialSize is MaxPartialSize as a variable so tests can lower
// the limit without gigabyte allocations.
var maxPartialSize uint64 = MaxPartialSize

// ErrCorruptPartial reports a partial-sum frame whose trailer or
// structure failed verification. It wraps core.ErrCorrupt so the
// transport's drop classifier files it as DropCorrupt.
var ErrCorruptPartial = fmt.Errorf("hier: corrupt partial-sum frame: %w", core.ErrCorrupt)

// WireOptions shape an encoded partial-sum frame.
type WireOptions struct {
	// Checksum appends a CRC32C trailer verified before any fold.
	Checksum bool
	// Lossless names a registered lossless codec to pack the body
	// through ("" = raw). Packing is byte-exact: the float64 sums
	// decompress bit-identical.
	Lossless string
}

// Reader is the stream interface DecodePartialFrom needs; both
// bufio.Reader (the transport's connection reader) and bytes.Reader
// satisfy it.
type Reader interface {
	io.Reader
	io.ByteReader
}

// EncodePartial renders p as a self-delimiting MsgPartialSum frame.
func EncodePartial(p *orchestrator.Partial, opts WireOptions) ([]byte, error) {
	body := appendBody(nil, p)
	flags := byte(0)
	if opts.Checksum {
		flags |= flagChecksum
	}
	if opts.Lossless != "" {
		c, err := lossless.New(opts.Lossless)
		if err != nil {
			return nil, fmt.Errorf("hier: pack partial: %w", err)
		}
		packed, err := c.Compress(body)
		if err != nil {
			return nil, fmt.Errorf("hier: pack partial: %w", err)
		}
		body = packed
		flags |= flagPacked
	}

	out := make([]byte, 0, len(body)+len(opts.Lossless)+16)
	out = append(out, flags)
	if flags&flagPacked != 0 {
		out = binary.AppendUvarint(out, uint64(len(opts.Lossless)))
		out = append(out, opts.Lossless...)
	}
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	if flags&flagChecksum != 0 {
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	}
	obsPartialsEnc.Inc()
	obsPartialBytesEnc.Add(int64(len(out)))
	obsPartialUpdatesEnc.Add(int64(p.Updates))
	return out, nil
}

// EncodePartialTo writes the frame to w.
func EncodePartialTo(w io.Writer, p *orchestrator.Partial, opts WireOptions) error {
	buf, err := EncodePartial(p, opts)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// appendBody serializes the partial's uncompressed body.
func appendBody(dst []byte, p *orchestrator.Partial) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Updates))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.TotalWeight))
	dst = binary.AppendUvarint(dst, uint64(len(p.Entries)))
	for _, e := range p.Entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
		dst = append(dst, e.Name...)
		dst = append(dst, byte(e.DType))
		if e.DType == model.Int64 {
			dst = binary.AppendUvarint(dst, uint64(len(e.Ints)))
			for _, v := range e.Ints {
				dst = binary.BigEndian.AppendUint64(dst, uint64(v))
			}
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(e.Shape)))
		for _, d := range e.Shape {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
		for _, v := range e.Sums {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Prior)))
	dst = append(dst, p.Prior...)
	if len(p.Span) > 0 {
		// Optional tail: pre-tracing decoders stop at the prior and
		// never see it; omitting it entirely (rather than writing a zero
		// length) keeps untraced frames byte-identical to old encoders.
		dst = binary.AppendUvarint(dst, uint64(len(p.Span)))
		dst = append(dst, p.Span...)
	}
	return dst
}

// DecodePartialFrom reads one MsgPartialSum frame off r, verifying the
// CRC32C trailer (when present) before parsing — a damaged region
// frame is rejected wholesale, nothing of it reaches an aggregator.
func DecodePartialFrom(r Reader) (*orchestrator.Partial, error) {
	p, err := decodePartialFrom(r)
	if err != nil {
		if errors.Is(err, ErrCorruptPartial) {
			obsPartialCorrupt.Inc()
		}
		return nil, err
	}
	obsPartialsDec.Inc()
	obsPartialUpdatesDec.Add(int64(p.Updates))
	return p, nil
}

func decodePartialFrom(r Reader) (*orchestrator.Partial, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("hier: read partial flags: %w", err)
	}
	if flags&^(flagChecksum|flagPacked) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptPartial, flags)
	}
	llName := ""
	if flags&flagPacked != 0 {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > 256 {
			return nil, fmt.Errorf("%w: lossless name", ErrCorruptPartial)
		}
		name := make([]byte, n)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("hier: read partial codec: %w", err)
		}
		llName = string(name)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("hier: read partial length: %w", err)
		}
		return nil, fmt.Errorf("%w: body size: %v", ErrCorruptPartial, err)
	}
	if size > maxPartialSize {
		return nil, fmt.Errorf("%w: body size %d", ErrCorruptPartial, size)
	}
	wire := int64(1) + int64(uvarintLen(size)) + int64(size)
	if llName != "" {
		wire += int64(uvarintLen(uint64(len(llName)))) + int64(len(llName))
	}
	if flags&flagChecksum != 0 {
		wire += 4
	}
	obsPartialBytesDec.Add(wire)
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("hier: read partial body: %w", err)
	}
	if flags&flagChecksum != 0 {
		var raw [4]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return nil, fmt.Errorf("hier: read partial trailer: %w", err)
		}
		if binary.BigEndian.Uint32(raw[:]) != crc32.Checksum(body, crcTable) {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptPartial)
		}
	}
	if llName != "" {
		c, err := lossless.New(llName)
		if err != nil {
			return nil, fmt.Errorf("%w: codec %q", ErrCorruptPartial, llName)
		}
		if body, err = c.Decompress(body); err != nil {
			return nil, fmt.Errorf("%w: unpack: %v", ErrCorruptPartial, err)
		}
		// The size cap applies to the logical body: a packed frame whose
		// self-described output blows past it is a bomb, not a partial.
		if uint64(len(body)) > maxPartialSize {
			return nil, fmt.Errorf("%w: unpacked size %d", ErrCorruptPartial, len(body))
		}
	}
	return parseBody(body)
}

// parseBody decodes the (uncompressed) body.
func parseBody(body []byte) (*orchestrator.Partial, error) {
	br := bytes.NewReader(body)
	p := &orchestrator.Partial{}
	updates, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: updates", ErrCorruptPartial)
	}
	p.Updates = int(updates)
	var w [8]byte
	if _, err := io.ReadFull(br, w[:]); err != nil {
		return nil, fmt.Errorf("%w: total weight", ErrCorruptPartial)
	}
	p.TotalWeight = math.Float64frombits(binary.BigEndian.Uint64(w[:]))
	if math.IsNaN(p.TotalWeight) || math.IsInf(p.TotalWeight, 0) || p.TotalWeight < 0 {
		return nil, fmt.Errorf("%w: total weight %v", ErrCorruptPartial, p.TotalWeight)
	}
	// Counts and lengths are checked against the bytes left in the
	// body before anything is allocated for them.
	nEntries, err := binary.ReadUvarint(br)
	if err != nil || nEntries > uint64(br.Len())/minEntrySize {
		return nil, fmt.Errorf("%w: entry count", ErrCorruptPartial)
	}
	p.Entries = make([]orchestrator.PartialEntry, 0, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		e, err := parseEntry(br)
		if err != nil {
			return nil, err
		}
		p.Entries = append(p.Entries, e)
	}
	priorLen, err := binary.ReadUvarint(br)
	if err != nil || priorLen > uint64(br.Len()) {
		return nil, fmt.Errorf("%w: prior length", ErrCorruptPartial)
	}
	if priorLen > 0 {
		p.Prior = make([]byte, priorLen)
		if _, err := io.ReadFull(br, p.Prior); err != nil {
			return nil, fmt.Errorf("%w: prior blob", ErrCorruptPartial)
		}
	}
	// Optional span-summary tail: a body that ends here came from a
	// pre-tracing encoder — that's "no span", not corruption.
	spanLen, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return p, nil
		}
		return nil, fmt.Errorf("%w: span length", ErrCorruptPartial)
	}
	if spanLen > uint64(br.Len()) {
		return nil, fmt.Errorf("%w: span length %d", ErrCorruptPartial, spanLen)
	}
	if spanLen > 0 {
		p.Span = make([]byte, spanLen)
		if _, err := io.ReadFull(br, p.Span); err != nil {
			return nil, fmt.Errorf("%w: span blob", ErrCorruptPartial)
		}
	}
	return p, nil
}

// minEntrySize is the fewest body bytes one entry can take: a name
// length, a dtype and an element count or rank.
const minEntrySize = 3

// parseEntry decodes one PartialEntry.
func parseEntry(br *bytes.Reader) (orchestrator.PartialEntry, error) {
	var e orchestrator.PartialEntry
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 4096 {
		return e, fmt.Errorf("%w: entry name length", ErrCorruptPartial)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return e, fmt.Errorf("%w: entry name", ErrCorruptPartial)
	}
	e.Name = string(name)
	dt, err := br.ReadByte()
	if err != nil {
		return e, fmt.Errorf("%w: entry dtype", ErrCorruptPartial)
	}
	e.DType = model.DType(dt)
	switch e.DType {
	case model.Int64:
		n, err := binary.ReadUvarint(br)
		if err != nil || n > uint64(br.Len())/8 {
			return e, fmt.Errorf("%w: int entry length", ErrCorruptPartial)
		}
		e.Ints = make([]int64, n)
		var raw [8]byte
		for j := range e.Ints {
			if _, err := io.ReadFull(br, raw[:]); err != nil {
				return e, fmt.Errorf("%w: int entry data", ErrCorruptPartial)
			}
			e.Ints[j] = int64(binary.BigEndian.Uint64(raw[:]))
		}
	case model.Float32:
		ndim, err := binary.ReadUvarint(br)
		if err != nil || ndim > 16 {
			return e, fmt.Errorf("%w: entry rank", ErrCorruptPartial)
		}
		e.Shape = make([]int, ndim)
		elems := uint64(1)
		for d := range e.Shape {
			v, err := binary.ReadUvarint(br)
			if err != nil || v == 0 || v > uint64(br.Len())/8 {
				return e, fmt.Errorf("%w: entry shape", ErrCorruptPartial)
			}
			e.Shape[d] = int(v)
			elems *= v
			if elems > uint64(br.Len())/8 {
				return e, fmt.Errorf("%w: entry too large", ErrCorruptPartial)
			}
		}
		e.Sums = make([]float64, elems)
		var raw [8]byte
		for j := range e.Sums {
			if _, err := io.ReadFull(br, raw[:]); err != nil {
				return e, fmt.Errorf("%w: entry sums", ErrCorruptPartial)
			}
			e.Sums[j] = math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
		}
	default:
		return e, fmt.Errorf("%w: dtype %d", ErrCorruptPartial, dt)
	}
	return e, nil
}
