package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fedsz"
)

// traceDir receives each traced run's spans, inside the checkout's
// build directory.
const traceDir = ".bench_build/traces"

// tracedRun measures a timed session and a traced session of half the
// window each, derives the per-layer split from the traced one, and
// replays the workload's tensors through each layer.
func tracedRun(w workload, seed int64, window time.Duration) (*result, error) {
	timed, err := runSessions(w, seed, window/2, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runSessions(w, seed, window/2, 1, tr)
	if err != nil {
		return nil, err
	}
	ts, xs := summarize(w, timed), summarize(w, traced)
	if ts.gateErr == nil && xs.gateErr == nil && (ts.uplink != xs.uplink || ts.ratio != xs.ratio) {
		xs.gateErr = fmt.Errorf("traced uplink %.1f B/round ratio %v differs from untraced %.1f B/round ratio %v",
			xs.uplink, xs.ratio, ts.uplink, ts.ratio)
	}
	if xs.gateErr == nil {
		xs.gateErr = ts.gateErr
	}
	xs.sampled += ts.sampled
	xs.dropped += ts.dropped
	xs.report("traced")

	s := traced[0]
	m, err := s.split(w, tr)
	if err != nil {
		return nil, err
	}
	layers, err := replayLayers(w, s.in)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	m["trace_overhead_pct"] = 100 * (xs.p50/ts.p50 - 1)
	m["max_err_over_bound"] = max(ts.maxErr, xs.maxErr)
	m["drop_rate"] = float64(xs.dropped) / float64(max(1, xs.sampled))
	if err := writeSpans(w, seed, s, tr); err != nil {
		return nil, err
	}

	return xs.result(withUnits(perLayer, m)), nil
}

// split derives the per-layer live metrics of a traced session: the
// program's RoundSpans per tier and the benchmark's own spans, per
// timed round, as medians.
func (s *sessionResult) split(w workload, tr *tracer) (map[string]float64, error) {
	coord := map[int]fedsz.RoundSpan{}
	edge := map[int]fedsz.RoundSpan{}
	for _, sp := range s.spans {
		switch sp.Tier {
		case "coordinator":
			coord[sp.Round] = sp
		case "edge":
			edge[sp.Round] = sp
		}
	}
	byRound := map[int][]span{}
	for _, sp := range tr.spans {
		byRound[sp.Round] = append(byRound[sp.Round], sp)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var broadcast, gather, decodeFold, commit, edgeGather, writeWait, readWait, cover []float64
	var encode, decodeSelf, fold []float64
	var foldNs, foldElems int64
	for r := warmupRounds; r < warmupRounds+s.rounds(); r++ {
		c, ok := coord[r]
		if !ok {
			return nil, fmt.Errorf("no coordinator span for round %d", r)
		}
		broadcast = append(broadcast, ms(c.BroadcastNs))
		gather = append(gather, ms(c.GatherNs))
		decodeFold = append(decodeFold, ms(c.DecodeFoldNs))
		commit = append(commit, ms(c.CommitNs))
		if e, ok := edge[r]; ok {
			edgeGather = append(edgeGather, ms(e.GatherNs))
		}
		prev, cur := tr.waits[r-1], tr.waits[r]
		writeWait = append(writeWait, ms(cur[0]-prev[0]))
		readWait = append(readWait, ms(cur[1]-prev[1]))

		// The round's wall, commit to commit, and what covers it: the
		// coordinator's phases plus the benchmark's spans.
		lo, hi := tr.ns(s.commitAt[r-1]), tr.ns(s.commitAt[r])
		start := tr.ns(c.Start)
		iv := [][2]int64{
			{start, start + c.BroadcastNs + c.GatherNs},
			{start + c.TotalNs - c.CommitNs, start + c.TotalNs},
		}
		children := map[int][][2]int64{}
		for _, sp := range byRound[r] {
			iv = append(iv, [2]int64{sp.Start, sp.End})
			if sp.Parent != 0 {
				children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
			}
		}
		cover = append(cover, 100*float64(union(iv, lo, hi))/float64(hi-lo))
		for _, sp := range byRound[r] {
			switch sp.Name {
			case "fl.encode":
				encode = append(encode, ms(sp.dur()))
			case "fl.decode":
				folded := union(children[sp.ID], sp.Start, sp.End)
				fold = append(fold, ms(folded))
				decodeSelf = append(decodeSelf, ms(sp.dur()-folded))
			case "orchestrator.fold":
				foldNs += sp.dur()
				foldElems += sp.Elems
			}
		}
	}
	m := map[string]float64{
		"transport.broadcast_ms":         median(broadcast),
		"transport.gather_ms":            median(gather),
		"transport.decode_fold_ms":       median(decodeFold),
		"transport.client_write_wait_ms": median(writeWait),
		"transport.server_read_wait_ms":  median(readWait),
		"transport.frames":               s.frames,
		"orchestrator.commit_ms":         median(commit),
		"orchestrator.fold_ms":           median(fold),
		"fl.encode_ms":                   median(encode),
		"fl.decode_self_ms":              median(decodeSelf),
		"split_coverage_pct":             median(cover),
		"orchestrator.fold_ns_per_elem":  float64(foldNs) / float64(max(1, foldElems)),
	}
	if w.hier {
		m["hier.edge_gather_ms"] = median(edgeGather)
		m["hier.partial_bytes"] = float64(s.partialSize)
	}
	return m, nil
}

// writeSpans writes the traced session's spans, joined to their
// round's trace ID, next to the program's RoundSpans.
func writeSpans(w workload, seed int64, s *sessionResult, tr *tracer) error {
	ids := map[int]string{}
	for _, sp := range s.spans {
		if sp.Tier == "coordinator" {
			ids[sp.Round] = sp.TraceID
		}
	}
	spans := append([]span(nil), tr.spans...)
	for i := range spans {
		spans[i].TraceID = ids[spans[i].Round]
	}
	b, err := json.Marshal(map[string]any{
		"epoch":       tr.epoch,
		"spans":       spans,
		"round_spans": s.spans,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), b, 0o644)
}
