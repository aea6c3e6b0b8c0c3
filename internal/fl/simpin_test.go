package fl

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/lossy"
)

// pinnedRound is one round's deterministic outcome: the number of
// test samples classified correctly and the uplink accounting.
type pinnedRound struct {
	Correct       int
	BytesUplink   int64
	OriginalBytes int64
}

// simPins are per-round outcomes of full-participation, deadline-free
// simulations. Training, encoding and the FedAvg fold are deterministic
// under a seed, so these values change only if the arithmetic of a
// round changes.
var simPins = []struct {
	name string
	cfg  func(t *testing.T) SimConfig
	want []pinnedRound
}{
	{
		name: "plain",
		cfg:  func(t *testing.T) SimConfig { return smallSim(PlainCodec{}) },
		want: []pinnedRound{
			{11, 3762908, 3762908},
			{30, 3762908, 3762908},
			{54, 3762908, 3762908},
			{65, 3762908, 3762908},
			{76, 3762908, 3762908},
			{84, 3762908, 3762908},
			{88, 3762908, 3762908},
			{89, 3762908, 3762908},
		},
	},
	{
		name: "sz2",
		cfg:  func(t *testing.T) SimConfig { return smallSim(pinSZ2(t)) },
		want: []pinnedRound{
			{11, 594234, 3762336},
			{17, 594167, 3762336},
			{39, 594136, 3762336},
			{54, 594145, 3762336},
			{62, 594124, 3762336},
			{72, 594129, 3762336},
			{72, 594153, 3762336},
			{81, 594163, 3762336},
		},
	},
	{
		name: "noniid",
		cfg: func(t *testing.T) SimConfig {
			return SimConfig{
				Dataset:          dataset.FashionMNIST(),
				Clients:          4,
				Rounds:           5,
				SamplesPerClient: 80,
				TestSamples:      120,
				NonIIDAlpha:      0.3,
				Codec:            pinSZ2(t),
				Seed:             21,
			}
		},
		want: []pinnedRound{
			{14, 603576, 3762336},
			{32, 603776, 3762336},
			{60, 603987, 3762336},
			{69, 604142, 3762336},
			{75, 604226, 3762336},
		},
	},
	{
		name: "alexnet-cifar10",
		cfg:  func(t *testing.T) SimConfig { return pinModel(t, "alexnet") },
		want: []pinnedRound{
			{27, 1993010, 13133984},
			{38, 1994733, 13133984},
			{56, 1994003, 13133984},
		},
	},
	{
		name: "mobilenetv2",
		cfg:  func(t *testing.T) SimConfig { return pinModel(t, "mobilenetv2") },
		want: []pinnedRound{
			{27, 517494, 3290272},
			{31, 519016, 3290272},
			{41, 518103, 3290272},
		},
	},
	{
		name: "resnet50",
		cfg:  func(t *testing.T) SimConfig { return pinModel(t, "resnet50") },
		want: []pinnedRound{
			{17, 1094296, 6842528},
			{26, 1093596, 6842528},
			{33, 1091427, 6842528},
		},
	},
	{
		name: "delta",
		cfg: func(t *testing.T) SimConfig {
			return SimConfig{
				Dataset:          dataset.FashionMNIST(),
				Clients:          2,
				Rounds:           8,
				SamplesPerClient: 80,
				TestSamples:      100,
				Codec:            NewDeltaCodec(pinSZ2(t)),
				Seed:             9,
			}
		},
		want: []pinnedRound{
			{20, 181861, 1881168},
			{27, 210344, 1881168},
			{45, 224210, 1881168},
			{54, 222226, 1881168},
			{64, 225172, 1881168},
			{72, 223149, 1881168},
			{76, 229146, 1881168},
			{79, 227082, 1881168},
		},
	},
}

// pinnedRun is one pinned configuration's simulation, run once per
// test binary: the tests that check other properties of these runs
// share it instead of repeating the training.
type pinnedRun struct {
	once sync.Once
	cfg  SimConfig
	res  *SimResult
	err  error
}

var pinnedRuns sync.Map // name → *pinnedRun

// runPinned returns the config and result of the pinned configuration
// called name.
func runPinned(t *testing.T, name string) (SimConfig, *SimResult) {
	t.Helper()
	v, _ := pinnedRuns.LoadOrStore(name, &pinnedRun{})
	r := v.(*pinnedRun)
	r.once.Do(func() {
		r.err = fmt.Errorf("no pinned configuration %q", name)
		for _, pc := range simPins {
			if pc.name == name {
				r.cfg = pc.cfg(t)
				r.res, r.err = runSync(r.cfg)
			}
		}
	})
	if r.err != nil || r.res == nil {
		t.Fatalf("pinned run %s: %v", name, r.err)
	}
	return r.cfg, r.res
}

func pinSZ2(t *testing.T) Codec {
	t.Helper()
	c, err := NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pinModel(t *testing.T, name string) SimConfig {
	return SimConfig{
		Model:            name,
		Dataset:          dataset.CIFAR10(),
		Clients:          4,
		Rounds:           3,
		SamplesPerClient: 100,
		TestSamples:      200,
		Codec:            pinSZ2(t),
		Seed:             1,
	}
}

// pinRounds reduces a result to its pinned form. TestAccuracy is
// correct/len(test set); the test set holds exactly TestSamples items
// in every pinned config, which the integrality check confirms.
func pinRounds(t *testing.T, cfg SimConfig, res *SimResult) []pinnedRound {
	t.Helper()
	out := make([]pinnedRound, len(res.Rounds))
	for i, m := range res.Rounds {
		c := m.TestAccuracy * float64(cfg.TestSamples)
		if math.Abs(c-math.Round(c)) > 1e-6 {
			t.Fatalf("round %d accuracy %v is not a count over %d samples", i, m.TestAccuracy, cfg.TestSamples)
		}
		out[i] = pinnedRound{Correct: int(math.Round(c)), BytesUplink: m.BytesUplink, OriginalBytes: m.OriginalBytes}
	}
	return out
}

func formatPins(ps []pinnedRound) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "\t\t\t{%d, %d, %d},\n", p.Correct, p.BytesUplink, p.OriginalBytes)
	}
	return b.String()
}

// TestSimPinned pins the simulation's per-round outcomes on seven
// configurations: plain and sz2 updates, non-IID label skew, the three
// paper architectures on CIFAR-10, and the delta codec. The values were
// captured from the lockstep loop the orchestrated simulator replaced,
// which matched it bit for bit at full participation with no deadline.
func TestSimPinned(t *testing.T) {
	for _, pc := range simPins {
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			cfg, res := runPinned(t, pc.name)
			got := pinRounds(t, cfg, res)
			if len(got) != len(pc.want) {
				t.Fatalf("%d rounds, want %d; got:\n%s", len(got), len(pc.want), formatPins(got))
			}
			for i := range got {
				if got[i] != pc.want[i] {
					t.Fatalf("round %d = %+v, want %+v; got:\n%s", i, got[i], pc.want[i], formatPins(got))
				}
			}
		})
	}
}
