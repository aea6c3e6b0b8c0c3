package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"runtime/metrics"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

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

// TestReadPriorForgedLength feeds readPrior a 5-byte stream that only
// claims a 1 GiB blob: the read must fail without allocating for the
// claim.
func TestReadPriorForgedLength(t *testing.T) {
	var claim [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(claim[:], MaxFrameSize)
	if n != 5 {
		t.Fatalf("claim encodes in %d bytes, want 5", n)
	}
	r := bufio.NewReader(bytes.NewReader(claim[:n]))
	var err error
	grew := allocDelta(func() { _, err = readPrior(r) })
	if err == nil {
		t.Fatal("truncated prior read succeeded")
	}
	if grew >= 1e6 {
		t.Fatalf("forged prior length allocated %d bytes, want < 1 MB", grew)
	}
}

// roundStream encodes one writeRound broadcast the way it crosses the
// wire: each directive, then the model.
func roundStream(tb testing.TB, h roundHeader, withModel bool) []byte {
	tb.Helper()
	var b bytes.Buffer
	if h.traceID != "" {
		b.WriteByte(byte(MsgRoundTrace))
		if err := writeRoundTrace(&b, h.traceID, h.round); err != nil {
			tb.Fatal(err)
		}
	}
	if len(h.prior) > 0 {
		b.WriteByte(byte(MsgPlanPrior))
		if err := writePrior(&b, h.prior); err != nil {
			tb.Fatal(err)
		}
	}
	if h.bound > 0 {
		b.WriteByte(byte(MsgRoundBound))
		var raw [8]byte
		binary.BigEndian.PutUint64(raw[:], math.Float64bits(h.bound))
		b.Write(raw[:])
	}
	if withModel {
		// A two-entry model keeps the seed small, so a short fuzz run
		// spends its time mutating rather than minimizing.
		w, err := tensor.FromData([]float32{0.5, -1, 2, 0.25}, 2, 2)
		if err != nil {
			tb.Fatal(err)
		}
		sd := model.NewStateDict()
		for _, e := range []model.Entry{
			{Name: "fc.weight", DType: model.Float32, Tensor: w},
			{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{7}},
		} {
			if err := sd.Add(e); err != nil {
				tb.Fatal(err)
			}
		}
		b.WriteByte(byte(MsgGlobalModel))
		if err := core.MarshalStateDictTo(&b, sd); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Bytes()
}

// FuzzReadRound feeds arbitrary bytes to the round-header reader that
// clients and edges share: trace, prior and bound directives, then the
// global model. It must never panic, must only return validated
// directives, and must allocate in proportion to the bytes present —
// never for a forged length.
func FuzzReadRound(f *testing.F) {
	full := roundHeader{traceID: "0123456789abcdef", round: 3, prior: []byte("prior"), bound: 1e-2}
	f.Add(roundStream(f, full, true))
	f.Add(roundStream(f, roundHeader{traceID: "t"}, true))
	f.Add(roundStream(f, full, false))
	f.Add([]byte{byte(MsgShutdown)})
	f.Add([]byte{byte(MsgPlanPrior), 0x80, 0x80, 0x80, 0x80, 0x04})
	f.Add([]byte{byte(MsgRoundBound), 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h roundHeader
		var err error
		grew := allocDelta(func() {
			h, _, err = readRound(bufio.NewReader(bytes.NewReader(data)))
		})
		// Every field the state-dict decoder reads grows in 1 MiB chunks,
		// so one forged section costs at most a couple of chunks beyond
		// the bytes that back it.
		if limit := uint64(4<<20 + 256*len(data)); grew > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if len(h.traceID) > 256 {
			t.Fatalf("trace id of %d bytes accepted", len(h.traceID))
		}
		if h.bound != 0 && (!(h.bound > 0) || math.IsInf(h.bound, 0)) {
			t.Fatalf("invalid bound %v accepted", h.bound)
		}
	})
}
