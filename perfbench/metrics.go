package main

// metricDef is one reported metric. For a per-layer metric, moves
// names the end-to-end metrics and workloads a change to that layer
// should move, and where it should not; BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the timed run's metrics, measured with the benchmark's
// tracing off. Drop rate and error-over-bound are correctness gates
// (the result's failed count and correct flag) rather than metrics:
// both are 0 on a correct uncompressed run, and a bound relative to 0
// is meaningless.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "round_p50_ms", unit: "ms", better: "lower"},
	{name: "round_tail_ms", unit: "ms", better: "lower"},
	{name: "rounds_per_s", unit: "1/s", better: "higher"},
	{name: "uplink_bytes_per_round", unit: "bytes", better: "lower"},
	{name: "downlink_bytes_per_round", unit: "bytes", better: "lower"},
	{name: "compression_ratio", unit: "x", better: "higher"},
	{name: "alloc_mb_per_round", unit: "MB", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

const (
	movesKernel  = "round_p50_ms, rounds_per_s: fedsz-hier most, fedsz-flat next; not plain-flat"
	movesSection = "round_p50_ms, alloc_mb_per_round: fedsz-flat; barely fedsz-hier; not plain-flat"
	movesWire    = "round_p50_ms, downlink_bytes_per_round: plain-flat most"
	movesFL      = "round_p50_ms: fedsz-flat, fedsz-hier"
	movesFold    = "round_p50_ms: plain-flat most"
	movesHier    = "round_p50_ms, rounds_per_s, alloc_mb_per_round: fedsz-hier only"
)

// perLayer are the traced run's metrics. Layers a workload's path
// never enters report 0.
var perLayer = []metricDef{
	{"sz2.compress_ns_per_elem", "ns", "lower", movesKernel},
	{"sz2.decompress_ns_per_elem", "ns", "lower", movesKernel},
	{"sz2.compress_allocs", "count", "lower", movesKernel},
	{"sz2.decompress_allocs", "count", "lower", movesKernel},
	{"quant.encode_ns_per_elem", "ns", "lower", movesKernel},
	{"quant.decode_ns_per_elem", "ns", "lower", movesKernel},
	{"huffman.encode_ns_per_sym", "ns", "lower", movesKernel},
	{"huffman.decode_ns_per_sym", "ns", "lower", movesKernel},
	{"bitstream.write_ns_per_field", "ns", "lower", movesKernel},
	{"bitstream.read_ns_per_field", "ns", "lower", movesKernel},
	{"core.encode_mbps", "MB/s", "higher", movesSection},
	{"core.decode_mbps", "MB/s", "higher", movesSection},
	{"core.encode_allocs", "count", "lower", movesSection},
	{"core.decode_allocs", "count", "lower", movesSection},
	{"core.sections", "count", "lower", movesSection},
	{"core.section_overhead_us", "us", "lower", movesSection},
	{"lossless.compress_mbps", "MB/s", "higher", "round_p50_ms: fedsz-flat; not plain-flat"},
	{"lossless.decompress_mbps", "MB/s", "higher", "round_p50_ms: fedsz-flat; not plain-flat"},
	{"core.marshal_ms", "ms", "lower", movesWire},
	{"core.unmarshal_ms", "ms", "lower", movesWire},
	{"transport.broadcast_ms", "ms", "lower", movesWire},
	{"transport.gather_ms", "ms", "lower", movesWire},
	{"transport.decode_fold_ms", "ms", "lower", movesWire},
	{"transport.client_write_wait_ms", "ms", "lower", movesWire},
	{"transport.server_read_wait_ms", "ms", "lower", movesWire},
	{"transport.frames", "count", "lower", movesWire},
	{"fl.encode_ms", "ms", "lower", movesFL},
	{"fl.decode_self_ms", "ms", "lower", movesFL},
	{"orchestrator.fold_ns_per_elem", "ns", "lower", movesFold},
	{"orchestrator.fold_ms", "ms", "lower", movesFold},
	{"orchestrator.commit_ms", "ms", "lower", movesFold},
	{"orchestrator.finalize_ms", "ms", "lower", movesFold},
	{"hier.partial_bytes", "bytes", "lower", movesHier},
	{"hier.encode_mbps", "MB/s", "higher", movesHier},
	{"hier.decode_mbps", "MB/s", "higher", movesHier},
	{"hier.edge_gather_ms", "ms", "lower", movesHier},
	{"core.checksum_overhead_pct", "%", "lower", movesHier},
	{"trace_overhead_pct", "%", "lower", "none: the traced run's round_p50_ms over the timed run's"},
	{"split_coverage_pct", "%", "higher", "none: share of the round wall the coordinator phases and benchmark spans cover"},
	{"max_err_over_bound", "ratio", "lower", "gate: ≤ 1 on fedsz workloads, 0 on plain-flat"},
	{"drop_rate", "ratio", "lower", "gate: 0 on clean loopback"},
}

// withUnits attaches each definition's unit to its measured value.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}
