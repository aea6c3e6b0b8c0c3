package fl

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"fedsz/internal/hier"
	"fedsz/internal/netsim"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
)

// HierSimConfig parameterizes the hierarchical (2-tier) simulation:
// clients are partitioned into Edges contiguous regions, each region
// folds its clients' codec-encoded updates into a regional aggregator
// on a fast local link, and each edge forwards one partial-sum frame
// over the contended WAN to the coordinator, which folds partials the
// way a flat round folds clients. Because partials carry unnormalized
// float64 sums verbatim, deadline-free runs (RoundDeadline == 0)
// commit global models byte-identical to the flat simulation's under
// the same seed — the tier changes fan-in and wire traffic, never the
// arithmetic. Under a RoundDeadline the drop policies intentionally
// diverge: the flat loop guarantees one accepted update per round,
// while each region here folds its own earliest arrival so no region
// is starved — up to one late straggler per region may be kept that
// the flat cut would drop. RoundMetrics.Participants likewise counts
// the clients actually folded, where the flat path reports the
// sampled count.
type HierSimConfig struct {
	OrchSimConfig

	// Edges is the number of regional edge aggregators. Clients are
	// split into this many contiguous regions (uneven when it does not
	// divide the client count). 0 defaults to 1.
	Edges int
	// EdgeShards is each regional aggregator's shard count (0 = auto).
	EdgeShards int
	// Wire controls the partial frames edges forward upstream
	// (checksum stamping, optional lossless packing).
	Wire hier.WireOptions
	// EdgeLink models the edge→core hop each partial frame crosses
	// (zero = instantaneous). Wrap it in netsim.ContendedWAN to share
	// the trunk across the forwarding edges.
	EdgeLink netsim.Link
}

// HierStats aggregates the tier-level outcomes of a hierarchical run.
type HierStats struct {
	Edges          int   // regions in the tier
	ClientBytes    int64 // tier-1 wire bytes: every client→edge uplink
	PartialBytes   int64 // tier-2 wire bytes: every edge→core partial
	Partials       int   // partial frames folded at the core
	EmptyRegions   int   // regions withdrawn for a round (no updates)
	ClientDrops    int   // clients cut at the edge tier (stragglers)
	PeakEdgeMemory int64 // largest regional aggregator footprint seen
	PeakCoreMemory int64 // largest coordinator aggregator footprint seen
}

// RunHierSim executes a 2-tier federated simulation on a virtual
// clock. The coordinator's registry holds the edges; every round fans
// out through them to their regions, regional folds run through the
// real codec wire format, and each region's partial sum travels
// through the real hier frame codec (encode, then decode at the core)
// so checksums and lossless packing are exercised end to end.
func RunHierSim(cfg HierSimConfig) (*SimResult, *HierStats, error) {
	cfg.SimConfig = cfg.SimConfig.withDefaults()
	if cfg.Mode == orchestrator.ModeAsync {
		return nil, nil, fmt.Errorf("fl: hierarchical simulation is sync-only")
	}
	edges := cfg.Edges
	if edges <= 0 {
		edges = 1
	}
	if edges > cfg.Clients {
		edges = cfg.Clients
	}

	w := newSimWorld(cfg.OrchSimConfig)
	clients := w.clients

	// The coordinator registers the EDGES: its fan-in is the region
	// count, not the population — the whole point of the tier.
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{
		Mode:   orchestrator.ModeSync,
		Shards: cfg.Shards,
		Bound:  cfg.Bound,
		OnDrop: cfg.OnDrop,
		Seed:   cfg.Seed + 5,
	}, w.server.StateDict())
	if err != nil {
		return nil, nil, err
	}
	// Contiguous regions: region e owns clients [e*per, ...) with the
	// remainder spread over the leading regions.
	regions := make([][]*orchClient, edges)
	per, rem := cfg.Clients/edges, cfg.Clients%edges
	lo := 0
	for e := range regions {
		n := per
		if e < rem {
			n++
		}
		regions[e] = clients[lo : lo+n]
		lo += n
	}
	edgeIDs := make([]string, edges)
	for e := range edgeIDs {
		edgeIDs[e] = fmt.Sprintf("edge-%04d", e)
		if err := coord.Join(edgeIDs[e]); err != nil {
			return nil, nil, err
		}
	}

	result := &SimResult{Config: cfg.SimConfig}
	hs := &HierStats{Edges: edges}
	jitterRNG := stats.NewRNG(cfg.Seed + 6)

	for round := 0; round < cfg.Rounds; round++ {
		r, err := coord.StartRound()
		if err != nil {
			return nil, nil, err
		}
		_, g := coord.Global()
		w.handOff(coord, g, clients)
		// Tier 1 trains everywhere at once (wall clock); the virtual
		// timeline orders arrivals per region below.
		arrivals, err := w.trainAll(clients, g, round, jitterRNG)
		if err != nil {
			return nil, nil, err
		}

		// Tier 2: every region folds its arrivals in virtual order,
		// cuts its stragglers at the regional deadline, and forwards
		// one partial frame whose WAN transfer lands at the core.
		m := RoundMetrics{Round: round}
		var roundSpan time.Duration
		accepted := 0
		base := 0
		for e, region := range regions {
			regional := arrivals[base : base+len(region)]
			base += len(region)
			sort.Slice(regional, func(i, j int) bool { return regional[i].at < regional[j].at })

			agg := orchestrator.NewAggregator(g, cfg.EdgeShards)
			var regionSpan time.Duration
			folded := 0
			for i := range regional {
				a := &regional[i]
				// Per-region progress guarantee: each region always keeps
				// its earliest arrival, so a tight deadline can admit one
				// late straggler per region where the flat simulator keeps
				// only the single globally earliest (see HierSimConfig).
				if cfg.RoundDeadline > 0 && a.at > cfg.RoundDeadline && folded > 0 {
					hs.ClientDrops++
					m.Dropped++
					continue
				}
				ct, err := agg.Contributor(float64(a.out.samples))
				if err != nil {
					return nil, nil, fmt.Errorf("fl: round %d region %d: %w", round, e, err)
				}
				if err := w.fold(ct, a, &m, round); err != nil {
					return nil, nil, err
				}
				folded++
				accepted++
				regionSpan = a.at
				hs.ClientBytes += a.out.stats.CompressedBytes
			}
			if mem := agg.MemoryBytes(); mem > hs.PeakEdgeMemory {
				hs.PeakEdgeMemory = mem
			}

			// Fold-and-forward through the real partial frame codec.
			frame, err := hier.EncodePartial(agg.Partial(), cfg.Wire)
			if err != nil {
				return nil, nil, fmt.Errorf("fl: round %d region %d: %w", round, e, err)
			}
			hs.PartialBytes += int64(len(frame))
			pt, err := hier.DecodePartialFrom(bytes.NewReader(frame))
			if err != nil {
				return nil, nil, fmt.Errorf("fl: round %d region %d decode: %w", round, e, err)
			}
			if pt.Updates == 0 {
				hs.EmptyRegions++
				r.Drop(edgeIDs[e], orchestrator.DropDeadline)
				continue
			}
			if err := r.SubmitPartial(edgeIDs[e], pt); err != nil {
				return nil, nil, fmt.Errorf("fl: round %d region %d fold: %w", round, e, err)
			}
			hs.Partials++
			arrival := regionSpan + cfg.EdgeLink.SampleTransferTime(int64(len(frame)), jitterRNG)
			if arrival > roundSpan {
				roundSpan = arrival
			}
		}

		g, st, err := r.Commit()
		if err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		if st.AggMemory > hs.PeakCoreMemory {
			hs.PeakCoreMemory = st.AggMemory
		}
		m.CommTime = roundSpan
		// Folded clients, not the sampled population (the coordinator
		// samples edges here, so the flat metric has no direct analog).
		m.Participants = accepted
		m.Dropped += st.Dropped
		m.perClient(accepted)
		if err := w.evaluate(&m, g); err != nil {
			return nil, nil, err
		}
		result.Rounds = append(result.Rounds, m)
	}
	return result, hs, nil
}
