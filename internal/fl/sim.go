package fl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fedsz/internal/dataset"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
)

// SimConfig parameterizes an in-process federated simulation
// reproducing the paper's setup (§VI: FedAvg, one epoch per client per
// round, simulated bandwidth).
type SimConfig struct {
	Model            string       // mini model name: "alexnet", "mobilenetv2", "resnet50"
	Dataset          dataset.Spec //
	Clients          int          //
	Rounds           int          //
	LocalEpochs      int          // epochs per client per round (paper: 1)
	SamplesPerClient int          //
	TestSamples      int          //
	BatchSize        int          //
	LR               float32      //
	Momentum         float32      //
	Codec            Codec        // update codec (PlainCodec or FedSZCodec)
	Link             netsim.Link  // client→server link model
	Seed             int64        //

	// ClientsPerRound samples a subset of clients each round (0 = all),
	// as in large-scale FL deployments.
	ClientsPerRound int
	// NonIIDAlpha > 0 partitions client data with Dirichlet(alpha)
	// label skew instead of the IID split.
	NonIIDAlpha float64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Model == "" {
		c.Model = "alexnet"
	}
	if c.Dataset.Dim == 0 {
		c.Dataset = dataset.CIFAR10()
	}
	if c.Clients == 0 {
		c.Clients = 4 // paper §VI-B: four clients
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.SamplesPerClient == 0 {
		c.SamplesPerClient = 120
	}
	if c.TestSamples == 0 {
		c.TestSamples = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Codec == nil {
		c.Codec = PlainCodec{}
	}
	return c
}

// RoundMetrics captures one communication round.
type RoundMetrics struct {
	Round        int
	TestAccuracy float64

	// Wall-clock components, mean per folded client (paper Fig. 6
	// breakdown). DecodeTime covers decoding the update and folding it
	// into the aggregate, which happen entry by entry in one pass.
	TrainTime      time.Duration
	EncodeTime     time.Duration
	DecodeTime     time.Duration
	ValidationTime time.Duration

	// CommTime is the round's virtual span: from the round's start
	// until the last folded update (or, with edges, the last partial)
	// lands, modeled training time included. Each client's upload
	// occupies its own link.
	CommTime time.Duration

	BytesUplink   int64 // compressed bytes sent by all folded clients
	OriginalBytes int64 // uncompressed equivalent

	// Participants counts the clients asked to train (sync) or folded
	// into the commit (async, hierarchical); Dropped counts the
	// stragglers cut from the commit.
	Participants int
	Dropped      int
}

// addClient adds one folded client's costs to the round's sums.
func (m *RoundMetrics) addClient(out *clientResult, decode time.Duration) {
	m.TrainTime += out.train
	m.EncodeTime += out.stats.EncodeTime
	m.DecodeTime += decode
	m.BytesUplink += out.stats.CompressedBytes
	m.OriginalBytes += out.stats.OriginalBytes
}

// perClient turns the summed wall-clock components into means over
// the n folded clients.
func (m *RoundMetrics) perClient(n int) {
	if n > 0 {
		m.TrainTime /= time.Duration(n)
		m.EncodeTime /= time.Duration(n)
		m.DecodeTime /= time.Duration(n)
	}
}

// SimResult is a full simulation trace.
type SimResult struct {
	Config SimConfig
	Rounds []RoundMetrics
}

// FinalAccuracy returns the last round's test accuracy.
func (r *SimResult) FinalAccuracy() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].TestAccuracy
}

// TotalCommTime sums the simulated communication time across rounds.
func (r *SimResult) TotalCommTime() time.Duration {
	var d time.Duration
	for _, m := range r.Rounds {
		d += m.CommTime
	}
	return d
}

// simWorld is what every simulator builds the same way from its
// config: the client population, the server network that evaluates
// each committed model, and the test batch.
type simWorld struct {
	cfg     OrchSimConfig
	clients []*orchClient
	server  *nn.Network
	testX   *nn.Batch
	testY   []int
}

// newSimWorld splits the dataset (IID or Dirichlet label skew) into
// one shard per client, draws each client's link/compute profile and
// encode codec, and builds the server and its test batch. cfg must
// already carry its defaults.
func newSimWorld(cfg OrchSimConfig) *simWorld {
	full := cfg.Dataset.Generate(cfg.Clients*cfg.SamplesPerClient+cfg.TestSamples, cfg.Seed)
	trainFrac := float64(cfg.Clients*cfg.SamplesPerClient) / float64(full.N)
	trainSet, testSet := full.TrainTest(trainFrac, cfg.Seed+1)
	var shards []*dataset.Dataset
	if cfg.NonIIDAlpha > 0 {
		shards = trainSet.SplitDirichlet(cfg.Clients, cfg.NonIIDAlpha, cfg.Seed+2)
	} else {
		shards = trainSet.Split(cfg.Clients)
	}

	profileRNG := stats.NewRNG(cfg.Seed + 4)
	clients := make([]*orchClient, cfg.Clients)
	for i := range clients {
		profile := netsim.ClientProfile{Link: cfg.Link, ComputeFactor: 1}
		if !cfg.Population.IsZero() {
			profile = cfg.Population.Sample(profileRNG)
		}
		id := fmt.Sprintf("client-%04d", i)
		codec := cfg.Codec
		if cfg.ClientCodec != nil {
			codec = cfg.ClientCodec(id)
		}
		clients[i] = &orchClient{
			id:      id,
			net:     nn.MiniByName(cfg.Model, cfg.Dataset.Dim, cfg.Dataset.Classes, cfg.Seed),
			data:    shards[i],
			profile: profile,
			codec:   codec,
		}
	}
	w := &simWorld{
		cfg:     cfg,
		clients: clients,
		server:  nn.MiniByName(cfg.Model, cfg.Dataset.Dim, cfg.Dataset.Classes, cfg.Seed),
	}
	w.testX, w.testY = testSet.Batch(0, testSet.N)
	return w
}

// handOff delivers what a TCP round broadcast carries — the reference
// model g and the coordinator's scheduled bound — to the shared
// decode codec and, when ClientCodec gives clients their own
// encoders, to those of the clients about to train.
func (w *simWorld) handOff(coord *orchestrator.Coordinator, g *model.StateDict, trainers []*orchClient) {
	codecs := []Codec{w.cfg.Codec}
	if w.cfg.ClientCodec != nil {
		for _, c := range trainers {
			codecs = append(codecs, c.codec)
		}
	}
	for _, c := range codecs {
		if ra, ok := c.(ReferenceAware); ok {
			ra.SetReference(g)
		}
		applyRoundBound(coord, c)
	}
}

// arrival is one client's trained update placed on the virtual
// timeline.
type arrival struct {
	c   *orchClient
	at  time.Duration
	out clientResult
}

// trainAll trains trainers from g in parallel on the wall clock,
// GOMAXPROCS at a time, then places each update on the virtual
// timeline (modeled training plus its link's transfer time) in
// trainer order, so jitter draws are deterministic under a seed.
func (w *simWorld) trainAll(trainers []*orchClient, g *model.StateDict, round int, jitterRNG *rand.Rand) ([]arrival, error) {
	out := make([]arrival, len(trainers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, c := range trainers {
		wg.Add(1)
		go func(i int, c *orchClient) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = arrival{c: c, out: c.train(w.cfg, g, round)}
		}(i, c)
	}
	wg.Wait()
	for i := range out {
		a := &out[i]
		if a.out.err != nil {
			return nil, fmt.Errorf("fl: round %d client %s: %w", round, a.c.id, a.out.err)
		}
		virtualTrain := w.cfg.virtualTrainTime(a.out.samples, a.c.profile.ComputeFactor)
		a.at = virtualTrain + a.c.profile.Link.SampleTransferTime(a.out.stats.CompressedBytes, jitterRNG)
	}
	return out, nil
}

// fold decodes a's update into ct entry by entry, commits it, and adds
// the client's costs to m.
func (w *simWorld) fold(ct *orchestrator.Contributor, a *arrival, m *RoundMetrics, round int) error {
	decodeStart := time.Now()
	if err := DecodeEntries(w.cfg.Codec, bytes.NewReader(a.out.payload), ct.Fold); err != nil {
		ct.AbortReason(orchestrator.DropCorrupt)
		return fmt.Errorf("fl: round %d decode %s: %w", round, a.c.id, err)
	}
	if err := ct.Commit(); err != nil {
		return fmt.Errorf("fl: round %d commit %s: %w", round, a.c.id, err)
	}
	m.addClient(&a.out, time.Since(decodeStart))
	return nil
}

// evaluate loads the committed model g into the server and records
// its test accuracy and the validation time in m.
func (w *simWorld) evaluate(m *RoundMetrics, g *model.StateDict) error {
	valStart := time.Now()
	if err := w.server.LoadStateDict(g); err != nil {
		return fmt.Errorf("fl: load committed model: %w", err)
	}
	m.TestAccuracy = w.server.Accuracy(w.testX, w.testY)
	m.ValidationTime = time.Since(valStart)
	return nil
}

// ScalingPoint is one (workers, time) sample of the Fig. 9 experiments.
type ScalingPoint struct {
	Workers            int
	EpochTimePerClient time.Duration // simulated wall time per client epoch
}

// SimulateWeakScaling models the paper's weak-scaling experiment
// (Fig. 9a): one client per core, shared 10 Mbps server ingest. The
// per-client epoch time is compute + its share of the serialized
// communication. computeTime and updateBytes characterize one client.
func SimulateWeakScaling(workers []int, computeTime time.Duration, updateBytes int64, link netsim.Link) []ScalingPoint {
	out := make([]ScalingPoint, len(workers))
	for i, w := range workers {
		comm := time.Duration(w) * link.TransferTime(updateBytes)
		out[i] = ScalingPoint{Workers: w, EpochTimePerClient: computeTime + comm}
	}
	return out
}

// SimulateStrongScaling models Fig. 9b: a fixed population of clients
// multiplexed over an increasing number of cores. Compute parallelizes;
// the serial ingest link does not.
func SimulateStrongScaling(workers []int, clients int, computeTime time.Duration, updateBytes int64, link netsim.Link) []ScalingPoint {
	comm := time.Duration(clients) * link.TransferTime(updateBytes)
	out := make([]ScalingPoint, len(workers))
	for i, w := range workers {
		waves := (clients + w - 1) / w
		out[i] = ScalingPoint{
			Workers:            w,
			EpochTimePerClient: time.Duration(waves)*computeTime + comm,
		}
	}
	return out
}
