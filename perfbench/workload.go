package main

import (
	"fmt"
	"math"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
)

const (
	// nClients is the closed-loop client count: one per core on the
	// two-core reference machine, each holding one connection.
	nClients = 2
	// nVariants is how many distinct updates each client cycles
	// through, so consecutive rounds never encode identical inputs.
	nVariants = 2
	// relBound is the paper's recommended REL error bound.
	relBound = 1e-2
)

// clientSamples are the FedAvg weights (local sample counts); unequal
// so the weighted arithmetic is exercised.
var clientSamples = [nClients]int{30, 10}

// workload is one benchmark input set: a model, a codec and a topology.
type workload struct {
	name  string
	arch  model.Arch
	fedsz bool // sz2 at REL 1e-2 + blosclz; false = fl.PlainCodec
	hier  bool // coordinator ← 1 edge ← clients, instead of clients → coordinator
	// checksum stamps client frames (and the edge's partials) with CRC32C.
	checksum bool
}

var workloads = []workload{
	{name: "fedsz-flat", arch: model.MobileNetV2(1), fedsz: true},
	{name: "plain-flat", arch: model.MobileNetV2(1)},
	{name: "fedsz-hier", arch: model.AlexNet(4), fedsz: true, hier: true, checksum: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pipelineConfig is the FedSZ configuration every sz2 workload runs:
// the paper's optimum (sz2, REL 1e-2, blosclz for metadata).
func (w workload) pipelineConfig() core.Config {
	return core.Config{
		Lossy:    "sz2",
		Bound:    lossy.RelBound(relBound),
		Lossless: "blosclz",
		Checksum: w.checksum,
	}
}

// newCodec returns a fresh update codec for one federation member.
func (w workload) newCodec() (fl.Codec, error) {
	if !w.fedsz {
		return fl.PlainCodec{}, nil
	}
	return fl.NewFedSZCodec(w.pipelineConfig())
}

// lossyEntry mirrors core's Algorithm 1 partition: which entries take
// the error-bounded path (and so may differ from exact FedAvg).
func (w workload) lossyEntry(e model.Entry) bool {
	return w.fedsz && e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > core.DefaultThreshold
}

// expectEntry is one entry of the exact FedAvg a round must commit.
type expectEntry struct {
	name  string
	f32   []float32 // exact FedAvg rounded to float32, as the aggregator finalizes
	ints  []int64
	bound float64 // FedAvg-weighted absolute error bound; 0 = must match exactly
}

// inputs are everything one federation session feeds the system, all
// derived from the seed.
type inputs struct {
	initial *model.StateDict
	// updates[c][k] is client c's update in rounds r ≡ k (mod nVariants).
	updates [nClients][nVariants]*model.StateDict
	// serialized[c][k] is the plain serialized size S of updates[c][k].
	serialized [nClients][nVariants]int64
	// expect[k] is the exact FedAvg of round k's updates.
	expect [nVariants][]expectEntry
}

// subSeed derives independent stream seeds from the run seed
// (splitmix64 finalizer).
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// makeInputs builds the initial global model, every client's updates
// and the exact FedAvg each round must commit.
func makeInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{initial: model.BuildStateDict(w.arch, subSeed(seed, 0))}
	for c := 0; c < nClients; c++ {
		for k := 0; k < nVariants; k++ {
			u := model.BuildStateDict(w.arch, subSeed(seed, 1+c*nVariants+k))
			buf, err := core.MarshalStateDict(u)
			if err != nil {
				return nil, err
			}
			in.updates[c][k] = u
			in.serialized[c][k] = int64(len(buf))
		}
	}
	var total float64
	for _, s := range clientSamples {
		total += float64(s)
	}
	for k := 0; k < nVariants; k++ {
		a, b := in.updates[0][k].Entries(), in.updates[1][k].Entries()
		wa, wb := float64(clientSamples[0]), float64(clientSamples[1])
		exp := make([]expectEntry, len(a))
		for i := range a {
			exp[i].name = a[i].Name
			if a[i].DType == model.Int64 {
				// The aggregator keeps the first committed update's
				// integers; both clients carry the same counters.
				exp[i].ints = a[i].Ints
				continue
			}
			x, y := a[i].Tensor.Data(), b[i].Tensor.Data()
			f := make([]float32, len(x))
			for j := range x {
				f[j] = float32((wa*float64(x[j]) + wb*float64(y[j])) / total)
			}
			exp[i].f32 = f
			if w.lossyEntry(a[i]) {
				ea, err := lossy.RelBound(relBound).Resolve(x)
				if err != nil {
					return nil, err
				}
				eb, err := lossy.RelBound(relBound).Resolve(y)
				if err != nil {
					return nil, err
				}
				exp[i].bound = (wa*ea + wb*eb) / total
			}
		}
		in.expect[k] = exp
	}
	return in, nil
}

// checkGlobal compares a committed global with the exact FedAvg of the
// round's updates. It returns the worst element error over its bound
// (entries off the lossy path must match exactly) and an error for any
// bound violation, non-finite value or structural mismatch.
func checkGlobal(global *model.StateDict, exp []expectEntry) (float64, error) {
	entries := global.Entries()
	if len(entries) != len(exp) {
		return math.Inf(1), fmt.Errorf("global has %d entries, want %d", len(entries), len(exp))
	}
	worst := 0.0
	for i, e := range entries {
		x := exp[i]
		if e.Name != x.name {
			return math.Inf(1), fmt.Errorf("entry %d is %q, want %q", i, e.Name, x.name)
		}
		if x.ints != nil {
			if e.DType != model.Int64 || len(e.Ints) != len(x.ints) {
				return math.Inf(1), fmt.Errorf("entry %q: integer shape mismatch", e.Name)
			}
			for j, v := range e.Ints {
				if v != x.ints[j] {
					return math.Inf(1), fmt.Errorf("entry %q[%d] = %d, want %d", e.Name, j, v, x.ints[j])
				}
			}
			continue
		}
		if e.DType != model.Float32 || e.Tensor == nil || e.Tensor.NumElements() != len(x.f32) {
			return math.Inf(1), fmt.Errorf("entry %q: tensor shape mismatch", e.Name)
		}
		maxErr := 0.0
		for j, v := range e.Tensor.Data() {
			d := math.Abs(float64(v) - float64(x.f32[j]))
			if !(d <= maxErr) { // also true for NaN
				if math.IsNaN(d) || math.IsInf(d, 0) {
					return math.Inf(1), fmt.Errorf("entry %q[%d] = %v is not finite", e.Name, j, v)
				}
				maxErr = d
			}
		}
		if maxErr == 0 {
			continue
		}
		if x.bound == 0 {
			return math.Inf(1), fmt.Errorf("entry %q off the lossy path differs from FedAvg by %g", e.Name, maxErr)
		}
		if r := maxErr / x.bound; r > worst {
			worst = r
		}
	}
	if worst > 1 {
		return worst, fmt.Errorf("error %.6g× the REL %g bound", worst, relBound)
	}
	return worst, nil
}
