package fl

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fedsz/internal/dataset"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
)

// OrchSimConfig parameterizes the orchestrator-backed simulation. On
// top of the base SimConfig it adds the orchestration knobs (sync vs
// async aggregation, over-provisioned sampling, straggler deadlines)
// and a heterogeneous client population: each client draws a link/compute
// profile once at startup, so rounds see the slow-client long tail
// that dominates deployment-scale FL.
type OrchSimConfig struct {
	SimConfig

	// Mode selects synchronous rounds or FedBuff-style async buffering.
	Mode orchestrator.Mode
	// OverProvision over-samples sync rounds (≥1; see orchestrator.Config).
	OverProvision float64
	// RoundDeadline drops sync stragglers whose update would land past
	// this much virtual time after round start (0 = wait for target).
	RoundDeadline time.Duration
	// BufferSize is the async commit threshold (0 = default 16).
	BufferSize int
	// Shards is the aggregator shard count (0 = auto).
	Shards int
	// Bound, if non-nil, schedules the round-level error bound: the
	// coordinator feeds it every commit and the simulation applies its
	// NextBound to the codec (through BoundAware) before each round's
	// encodes — the virtual-time equivalent of the TCP server's
	// MsgRoundBound broadcast.
	Bound orchestrator.BoundScheduler
	// ClientCodec, if non-nil, builds each client's *encode* codec from
	// its id — the hook that gives every simulated client its own
	// stateful encoder (error-feedback residuals are per-client; a
	// shared codec would cross-pollinate them). Decoding stays on the
	// shared cfg.Codec: frames are self-describing, so any pipeline
	// decodes any client's bytes. Nil means every client encodes with
	// cfg.Codec, as before.
	ClientCodec func(id string) Codec
	// OnDrop, if non-nil, is forwarded to the coordinator: it observes
	// every client whose pending update is withdrawn (leave, straggler
	// drop, aborted contribution), outside all locks, with the typed
	// reason. Pair it with core.ResidualStore.Withdraw when ClientCodec
	// attaches error-feedback state.
	OnDrop func(clientID string, reason orchestrator.DropReason)
	// Population samples each client's link/compute profile; the zero
	// profile gives every client cfg.Link at nominal compute.
	Population netsim.Profile
	// SampleComputeTime is the modeled virtual compute per training
	// sample per local epoch of a nominal (ComputeFactor 1) client:
	// virtual training time = samples × LocalEpochs ×
	// SampleComputeTime × ComputeFactor. 0 defaults to 1ms. The
	// virtual schedule is built from this model — never from measured
	// wall time — so straggler drops, acceptance order and fold order
	// are deterministic under a seed regardless of host load.
	SampleComputeTime time.Duration
}

// virtualTrainTime models one client's virtual local-training span.
func (cfg OrchSimConfig) virtualTrainTime(samples int, factor float64) time.Duration {
	per := cfg.SampleComputeTime
	if per <= 0 {
		per = time.Millisecond
	}
	return time.Duration(float64(samples*cfg.LocalEpochs) * float64(per) * factor)
}

// RunOrchestratedSim executes a federated simulation on the
// orchestrator: clients join a Coordinator, sync rounds sample an
// over-provisioned participant set and commit when the target update
// count arrives (stragglers past the virtual deadline are dropped),
// and async mode folds updates into the FedBuff-style buffer as their
// virtual arrival times order them. Updates travel through the real
// codec wire format and fold into the streaming sharded aggregator
// entry by entry — the same data path the TCP server runs, driven on
// a virtual clock.
func RunOrchestratedSim(cfg OrchSimConfig) (*SimResult, error) {
	cfg.SimConfig = cfg.SimConfig.withDefaults()
	w := newSimWorld(cfg)

	coord, err := orchestrator.NewCoordinator(orchestrator.Config{
		Mode:            cfg.Mode,
		ClientsPerRound: cfg.ClientsPerRound,
		OverProvision:   cfg.OverProvision,
		RoundDeadline:   cfg.RoundDeadline,
		BufferSize:      cfg.BufferSize,
		Shards:          cfg.Shards,
		Bound:           cfg.Bound,
		OnDrop:          cfg.OnDrop,
		Seed:            cfg.Seed + 5,
	}, w.server.StateDict())
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*orchClient, len(w.clients))
	for _, c := range w.clients {
		if err := coord.Join(c.id); err != nil {
			return nil, err
		}
		byID[c.id] = c
	}

	result := &SimResult{Config: cfg.SimConfig}
	jitterRNG := stats.NewRNG(cfg.Seed + 6)

	if cfg.Mode == orchestrator.ModeAsync {
		if _, ok := cfg.Codec.(ReferenceAware); ok {
			return nil, fmt.Errorf("fl: async mode cannot use reference-aware codec %q: commits between a client's encode and the server's decode would desynchronize the reference", cfg.Codec.Name())
		}
		for _, c := range w.clients {
			if _, ok := c.codec.(ReferenceAware); ok {
				return nil, fmt.Errorf("fl: async mode cannot use reference-aware codec %q for client %s", c.codec.Name(), c.id)
			}
		}
		if err := runAsyncSim(w, coord, jitterRNG, result); err != nil {
			return nil, err
		}
		return result, nil
	}

	for round := 0; round < cfg.Rounds; round++ {
		r, err := coord.StartRound()
		if err != nil {
			return nil, err
		}
		_, g := coord.Global()
		ids := r.Participants()
		trainers := make([]*orchClient, len(ids))
		for i, id := range ids {
			trainers[i] = byID[id]
		}
		w.handOff(coord, g, trainers)
		arrivals, err := w.trainAll(trainers, g, round, jitterRNG)
		if err != nil {
			return nil, err
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

		// Fold arrivals in virtual-time order until the round fills or
		// the deadline cuts the stragglers. The earliest update is
		// always taken so a too-tight deadline still makes progress.
		m := RoundMetrics{Round: round}
		accepted := 0
		for i := range arrivals {
			a := &arrivals[i]
			late := cfg.RoundDeadline > 0 && a.at > cfg.RoundDeadline
			if accepted >= r.Target() || (late && accepted > 0) {
				// Both cases are the virtual-clock deadline cut: the
				// update arrived after the round no longer wanted it.
				r.Drop(a.c.id, orchestrator.DropDeadline)
				continue
			}
			ct, err := r.Contributor(a.c.id, float64(a.out.samples))
			if err != nil {
				return nil, fmt.Errorf("fl: round %d client %s: %w", round, a.c.id, err)
			}
			if err := w.fold(ct, a, &m, round); err != nil {
				return nil, err
			}
			accepted++
			m.CommTime = a.at
		}

		g, st, err := r.Commit()
		if err != nil {
			return nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		m.Participants = st.Sampled
		m.Dropped = st.Dropped
		m.perClient(accepted)
		if err := w.evaluate(&m, g); err != nil {
			return nil, err
		}
		result.Rounds = append(result.Rounds, m)
	}
	return result, nil
}

// applyRoundBound forwards the coordinator's scheduled round bound to
// a bound-aware codec — the in-process stand-in for the transport's
// MsgRoundBound broadcast.
func applyRoundBound(coord *orchestrator.Coordinator, codec Codec) {
	if ba, ok := codec.(BoundAware); ok {
		if b := coord.RoundBound(); b > 0 {
			ba.SetRoundBound(b)
		}
	}
}

// orchClient is one simulated participant with a fixed heterogeneity
// profile and its own encode codec (shared cfg.Codec unless
// ClientCodec assigns per-client encoders).
type orchClient struct {
	id      string
	net     *nn.Network
	data    *dataset.Dataset
	profile netsim.ClientProfile
	codec   Codec
}

type clientResult struct {
	payload []byte
	stats   UpdateStats
	samples int
	train   time.Duration
	err     error
}

// train runs the client's local epochs from g and encodes the update.
func (c *orchClient) train(cfg OrchSimConfig, g *model.StateDict, round int) clientResult {
	var out clientResult
	if out.err = c.net.LoadStateDict(g); out.err != nil {
		return out
	}
	start := time.Now()
	for ep := 0; ep < cfg.LocalEpochs; ep++ {
		c.data.Shuffle(cfg.Seed + int64(round*1000+ep))
		for lo := 0; lo+cfg.BatchSize <= c.data.N; lo += cfg.BatchSize {
			x, y := c.data.Batch(lo, lo+cfg.BatchSize)
			c.net.TrainBatch(x, y, cfg.LR, cfg.Momentum)
		}
	}
	out.train = time.Since(start)
	out.samples = c.data.N
	out.payload, out.stats, out.err = c.codec.Encode(c.net.StateDict())
	return out
}

// asyncEvent is one client's update landing on the virtual timeline.
type asyncEvent struct {
	at      time.Duration
	client  *orchClient
	version int
	out     clientResult
}

type eventHeap []asyncEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(asyncEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runAsyncSim drives the FedBuff-style mode: every client trains
// continuously on its own virtual timeline; updates fold into the
// buffer in arrival order and each BufferSize-th commit advances the
// global model and emits one metrics row.
func runAsyncSim(w *simWorld, coord *orchestrator.Coordinator, jitterRNG *rand.Rand, result *SimResult) error {
	cfg := w.cfg
	h := &eventHeap{}
	heap.Init(h)

	schedule := func(c *orchClient, start time.Duration, round int) error {
		applyRoundBound(coord, c.codec)
		version, g := coord.Global()
		out := c.train(cfg, g, round)
		if out.err != nil {
			return fmt.Errorf("fl: async client %s: %w", c.id, out.err)
		}
		virtualTrain := cfg.virtualTrainTime(out.samples, c.profile.ComputeFactor)
		arrival := start + virtualTrain + c.profile.Link.SampleTransferTime(out.stats.CompressedBytes, jitterRNG)
		heap.Push(h, asyncEvent{at: arrival, client: c, version: version, out: out})
		return nil
	}
	for _, c := range w.clients {
		if err := schedule(c, 0, 0); err != nil {
			return err
		}
	}

	var acc RoundMetrics
	var folded int
	commits := 0
	for commits < cfg.Rounds && h.Len() > 0 {
		ev := heap.Pop(h).(asyncEvent)
		ct, commit, err := coord.AsyncContributor(ev.client.id, float64(ev.out.samples), ev.version)
		if err != nil {
			return fmt.Errorf("fl: async %s: %w", ev.client.id, err)
		}
		decodeStart := time.Now()
		if err := DecodeEntries(cfg.Codec, bytes.NewReader(ev.out.payload), ct.Fold); err != nil {
			ct.AbortReason(orchestrator.DropCorrupt)
			return fmt.Errorf("fl: async decode %s: %w", ev.client.id, err)
		}
		res, err := commit()
		if err != nil {
			return fmt.Errorf("fl: async commit %s: %w", ev.client.id, err)
		}
		folded++
		acc.addClient(&ev.out, time.Since(decodeStart))

		if res.Committed {
			m := acc
			m.Round = commits
			m.CommTime = ev.at
			m.Participants = res.Stats.Committed
			m.perClient(folded)
			if err := w.evaluate(&m, res.Global); err != nil {
				return err
			}
			result.Rounds = append(result.Rounds, m)
			commits++
			acc = RoundMetrics{}
			folded = 0
		}
		if commits < cfg.Rounds {
			if err := schedule(ev.client, ev.at, commits); err != nil {
				return err
			}
		}
	}
	return nil
}
