package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"fedsz/internal/bitstream"
	"fedsz/internal/core"
	"fedsz/internal/hier"
	"fedsz/internal/huffman"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/quant"
	"fedsz/internal/sz2"
)

// replayReps is how many times each layer call is repeated; the
// fastest repetition is reported, since interference on a shared
// machine only ever slows a repetition down.
const replayReps = 5

// timing is one replayed call: fastest wall time and mean allocations.
type timing struct {
	d      time.Duration
	allocs float64
}

func (t timing) ms() float64 { return float64(t.d.Nanoseconds()) / 1e6 }

// perUnit returns nanoseconds per unit of work.
func (t timing) perUnit(n int64) float64 { return float64(t.d.Nanoseconds()) / float64(n) }

// mbps returns megabytes (1e6) per second for n bytes.
func (t timing) mbps(n int64) float64 { return float64(n) / 1e6 / t.d.Seconds() }

// measure runs f replayReps times and returns the fastest duration and
// the mean allocation count of a run divided by calls.
func measure(calls int, f func() error) (timing, error) {
	var best time.Duration
	var mallocs uint64
	for i := 0; i < replayReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := f()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return timing{}, err
		}
		mallocs += m1.Mallocs - m0.Mallocs
		if i == 0 || d < best {
			best = d
		}
	}
	return timing{d: best, allocs: float64(mallocs) / float64(replayReps*calls)}, nil
}

// replayLayers replays one client's recorded update — the tensors the
// workload actually sends — through each layer's exported calls, one
// core at a time, and returns the per-layer metrics. Layers the
// workload's path never enters report 0.
func replayLayers(w workload, in *inputs) (map[string]float64, error) {
	u := in.updates[0][0]
	m := map[string]float64{}
	if err := replayServer(w, in, m); err != nil {
		return nil, err
	}
	if !w.fedsz {
		return m, nil
	}
	var lossyT [][]float32
	meta := model.NewStateDict()
	var lossyElems int64
	for _, e := range u.Entries() {
		if w.lossyEntry(e) {
			lossyT = append(lossyT, e.Tensor.Data())
			lossyElems += int64(len(e.Tensor.Data()))
		} else if err := meta.Add(e); err != nil {
			return nil, err
		}
	}
	bound := lossy.RelBound(relBound)

	// sz2: the whole compressor per lossy tensor.
	sz := sz2.New()
	payloads := make([][]byte, len(lossyT))
	comp, err := measure(len(lossyT), func() error {
		for i, t := range lossyT {
			p, err := sz.Compress(t, bound)
			if err != nil {
				return err
			}
			payloads[i] = p
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sz2 compress: %w", err)
	}
	decomp, err := measure(len(lossyT), func() error {
		for _, p := range payloads {
			if _, err := sz.Decompress(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sz2 decompress: %w", err)
	}
	m["sz2.compress_ns_per_elem"] = comp.perUnit(lossyElems)
	m["sz2.decompress_ns_per_elem"] = decomp.perUnit(lossyElems)
	m["sz2.compress_allocs"] = comp.allocs
	m["sz2.decompress_allocs"] = decomp.allocs

	if err := replayEntropy(lossyT, lossyElems, bound, m); err != nil {
		return nil, err
	}

	// lossless: blosclz over the serialized metadata entries.
	raw, err := core.MarshalStateDict(meta)
	if err != nil {
		return nil, err
	}
	ll, err := lossless.New(lossless.NameBloscLZ)
	if err != nil {
		return nil, err
	}
	var packed []byte
	llc, err := measure(1, func() (err error) { packed, err = ll.Compress(raw); return err })
	if err != nil {
		return nil, fmt.Errorf("blosclz compress: %w", err)
	}
	lld, err := measure(1, func() error { _, err := ll.Decompress(packed); return err })
	if err != nil {
		return nil, fmt.Errorf("blosclz decompress: %w", err)
	}
	m["lossless.compress_mbps"] = llc.mbps(int64(len(raw)))
	m["lossless.decompress_mbps"] = lld.mbps(int64(len(raw)))

	// core: the whole frame, serial, so layer times subtract cleanly.
	cfg := w.pipelineConfig()
	cfg.Parallelism = 1
	enc, dec, st, err := replayCore(cfg, u)
	if err != nil {
		return nil, err
	}
	if st.NumLossyTensors != len(lossyT) {
		return nil, fmt.Errorf("core put %d tensors on the lossy path, the benchmark expected %d", st.NumLossyTensors, len(lossyT))
	}
	sections := int64(len(lossyT) + 1) // one per lossy tensor plus the metadata section
	m["core.encode_mbps"] = enc.mbps(u.SizeBytes())
	m["core.decode_mbps"] = dec.mbps(u.SizeBytes())
	m["core.encode_allocs"] = enc.allocs
	m["core.decode_allocs"] = dec.allocs
	m["core.sections"] = float64(sections)

	// The overheads are small differences of large times, so their
	// terms run back to back in each repetition, where drift hits them
	// alike, and the median repetition is reported.
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	ds, err := interleave(
		func() error { _, _, err := p.Compress(u); return err },
		func() error {
			for _, t := range lossyT {
				if _, err := sz.Compress(t, bound); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { _, err := ll.Compress(raw); return err },
	)
	if err != nil {
		return nil, fmt.Errorf("core section replay: %w", err)
	}
	m["core.section_overhead_us"] = medianOf(ds, func(d []time.Duration) float64 {
		return float64((d[0] - d[1] - d[2]).Microseconds()) / float64(sections)
	})

	if w.checksum {
		// Encode plus decode of the same frame, with and without CRC32C.
		var pipes [2]*core.Pipeline
		for i := range pipes {
			cfg.Checksum = i == 0
			if pipes[i], err = core.NewPipeline(cfg); err != nil {
				return nil, err
			}
		}
		roundTrip := func(p *core.Pipeline) func() error {
			return func() error {
				frame, _, err := p.Compress(u)
				if err == nil {
					_, err = p.Decompress(frame)
				}
				return err
			}
		}
		ds, err := interleave(roundTrip(pipes[0]), roundTrip(pipes[1]))
		if err != nil {
			return nil, fmt.Errorf("core checksum replay: %w", err)
		}
		m["core.checksum_overhead_pct"] = medianOf(ds, func(d []time.Duration) float64 {
			return 100 * (d[0].Seconds()/d[1].Seconds() - 1)
		})
	}
	return m, nil
}

// interleave runs fs back to back replayReps times and returns each
// repetition's durations, in fs order.
func interleave(fs ...func() error) ([][]time.Duration, error) {
	out := make([][]time.Duration, replayReps)
	for i := range out {
		for _, f := range fs {
			start := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			out[i] = append(out[i], time.Since(start))
		}
	}
	return out, nil
}

// medianOf returns the median over repetitions of f.
func medianOf(reps [][]time.Duration, f func([]time.Duration) float64) float64 {
	v := make([]float64, len(reps))
	for i, d := range reps {
		v[i] = f(d)
	}
	return median(v)
}

// replayCore times one whole-frame encode and decode of u.
func replayCore(cfg core.Config, u *model.StateDict) (enc, dec timing, st core.Stats, err error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return enc, dec, st, err
	}
	var frame []byte
	if enc, err = measure(1, func() (err error) { frame, st, err = p.Compress(u); return err }); err != nil {
		return enc, dec, st, fmt.Errorf("core compress: %w", err)
	}
	if dec, err = measure(1, func() error { _, err := p.Decompress(frame); return err }); err != nil {
		return enc, dec, st, fmt.Errorf("core decompress: %w", err)
	}
	return enc, dec, st, nil
}

// replayEntropy times sz2's inner stages on the lossy tensors: the
// Lorenzo-predicted quantizer loop, Huffman over its codes, and the
// bitstream writing and reading the codes as fixed-width fields.
func replayEntropy(tensors [][]float32, elems int64, bound lossy.Params, m map[string]float64) error {
	quants := make([]quant.Quantizer, len(tensors))
	codes := make([][]int32, len(tensors))
	for i, t := range tensors {
		eb, err := bound.Resolve(t)
		if err != nil {
			return err
		}
		quants[i] = quant.New(eb, 0)
		codes[i] = make([]int32, len(t))
	}
	qenc, err := measure(len(tensors), func() error {
		for i, t := range tensors {
			q, c := quants[i], codes[i]
			radius := q.Radius()
			pred := 0.0
			for j, v := range t {
				code, r, ok := q.Encode(float64(v), pred)
				if !ok {
					c[j], pred = 0, float64(v)
					continue
				}
				c[j], pred = int32(code+radius+1), float64(float32(r))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := make([]float32, 0, 1<<20)
	qdec, err := measure(len(tensors), func() error {
		for i, t := range tensors {
			q, c := quants[i], codes[i]
			radius := q.Radius()
			out = out[:0]
			pred := 0.0
			for j, code := range c {
				if code == 0 {
					pred = float64(t[j]) // outlier, stored verbatim
				} else {
					pred = float64(float32(q.Decode(int(code)-radius-1, pred)))
				}
				out = append(out, float32(pred))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["quant.encode_ns_per_elem"] = qenc.perUnit(elems)
	m["quant.decode_ns_per_elem"] = qdec.perUnit(elems)

	streams := make([][]byte, len(codes))
	henc, err := measure(len(codes), func() error {
		for i, c := range codes {
			s, err := huffman.AppendEncode(streams[i][:0], c)
			if err != nil {
				return err
			}
			streams[i] = s
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("huffman encode: %w", err)
	}
	var syms []int32
	hdec, err := measure(len(codes), func() error {
		d := huffman.AcquireDecoder()
		defer d.Release()
		for _, s := range streams {
			if err := d.Open(s); err != nil {
				return err
			}
			var err error
			if syms, err = d.DecodeAll(syms[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("huffman decode: %w", err)
	}
	m["huffman.encode_ns_per_sym"] = henc.perUnit(elems)
	m["huffman.decode_ns_per_sym"] = hdec.perUnit(elems)

	width := uint(bits.Len32(uint32(2*quant.DefaultRadius + 1)))
	bw := bitstream.NewWriter(int(elems) * int(width) / 8)
	bwr, err := measure(1, func() error {
		bw.Reset()
		for _, c := range codes {
			for _, v := range c {
				bw.WriteBits(uint64(v), width)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	packed := bw.Bytes()
	brd, err := measure(1, func() error {
		r := bitstream.NewReader(packed)
		for i := int64(0); i < elems; i++ {
			if _, err := r.ReadBits(width); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("bitstream read: %w", err)
	}
	m["bitstream.write_ns_per_field"] = bwr.perUnit(elems)
	m["bitstream.read_ns_per_field"] = brd.perUnit(elems)
	return nil
}

// replayServer times the server-side layers every workload runs: the
// global-model broadcast codec, the aggregator's finalize and, on the
// hierarchical workload, the edge's partial-sum frame.
func replayServer(w workload, in *inputs, m map[string]float64) error {
	g := in.initial
	var raw []byte
	mar, err := measure(1, func() (err error) { raw, err = core.MarshalStateDict(g); return err })
	if err != nil {
		return err
	}
	unm, err := measure(1, func() error { _, err := core.UnmarshalStateDict(raw); return err })
	if err != nil {
		return err
	}
	m["core.marshal_ms"] = mar.ms()
	m["core.unmarshal_ms"] = unm.ms()

	agg := orchestrator.NewAggregator(g, 0)
	for c := 0; c < nClients; c++ {
		if err := agg.FoldStateDict(in.updates[c][0], float64(clientSamples[c])); err != nil {
			return err
		}
	}
	fin, err := measure(1, func() error { _, err := agg.Finalize(); return err })
	if err != nil {
		return err
	}
	m["orchestrator.finalize_ms"] = fin.ms()

	if !w.hier {
		return nil
	}
	p := agg.Partial()
	opts := hier.WireOptions{Checksum: w.checksum}
	var frame []byte
	penc, err := measure(1, func() (err error) { frame, err = hier.EncodePartial(p, opts); return err })
	if err != nil {
		return err
	}
	pdec, err := measure(1, func() error { _, err := hier.DecodePartialFrom(bytes.NewReader(frame)); return err })
	if err != nil {
		return err
	}
	m["hier.encode_mbps"] = penc.mbps(int64(len(frame)))
	m["hier.decode_mbps"] = pdec.mbps(int64(len(frame)))
	return nil
}
