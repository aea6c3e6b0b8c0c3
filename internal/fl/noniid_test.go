package fl

import (
	"testing"

	"fedsz/internal/dataset"
	"fedsz/internal/netsim"
)

func TestRunSimClientSampling(t *testing.T) {
	cfg := SimConfig{
		Dataset:          dataset.FashionMNIST(),
		Clients:          6,
		ClientsPerRound:  2,
		Rounds:           3,
		SamplesPerClient: 40,
		TestSamples:      80,
		Link:             netsim.Link{BandwidthBps: netsim.Mbps(10)},
		Seed:             13,
	}
	res, err := runSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only two clients upload per round, so uplink bytes reflect two
	// updates, not six.
	full, err := runSync(SimConfig{
		Dataset:          cfg.Dataset,
		Clients:          6,
		Rounds:           1,
		SamplesPerClient: 40,
		TestSamples:      80,
		Link:             cfg.Link,
		Seed:             13,
	})
	if err != nil {
		t.Fatal(err)
	}
	perClient := full.Rounds[0].BytesUplink / 6
	got := res.Rounds[0].BytesUplink
	if got < perClient || got > 3*perClient {
		t.Fatalf("sampled round uploaded %d bytes, want ≈2 clients × %d", got, perClient)
	}
}

func TestRunSimNonIID(t *testing.T) {
	_, res := runPinned(t, "noniid")
	// Non-IID training is harder but must still beat chance.
	if res.FinalAccuracy() <= 0.15 {
		t.Fatalf("non-IID accuracy %.3f did not beat chance", res.FinalAccuracy())
	}
}

func TestSplitDirichletSkew(t *testing.T) {
	d := dataset.CIFAR10().Generate(1000, 3)
	shards := d.SplitDirichlet(4, 0.1, 7)

	total := 0
	for _, s := range shards {
		total += s.N
	}
	if total != d.N {
		t.Fatalf("dirichlet split lost samples: %d != %d", total, d.N)
	}

	// With alpha=0.1 the label distribution must be visibly skewed:
	// some (shard, class) cells should be empty while the IID split
	// fills every cell.
	emptyCells := 0
	for _, s := range shards {
		counts := make([]int, s.Classes)
		for _, y := range s.Y {
			counts[y]++
		}
		for _, c := range counts {
			if c == 0 {
				emptyCells++
			}
		}
	}
	if emptyCells == 0 {
		t.Fatal("alpha=0.1 should produce empty (shard,class) cells")
	}

	// High alpha approaches IID: far fewer empty cells.
	uniform := d.SplitDirichlet(4, 100, 7)
	uniformEmpty := 0
	for _, s := range uniform {
		counts := make([]int, s.Classes)
		for _, y := range s.Y {
			counts[y]++
		}
		for _, c := range counts {
			if c == 0 {
				uniformEmpty++
			}
		}
	}
	if uniformEmpty >= emptyCells {
		t.Fatalf("alpha=100 (%d empty) should be more uniform than alpha=0.1 (%d empty)",
			uniformEmpty, emptyCells)
	}
}

func TestSplitDirichletValidation(t *testing.T) {
	d := dataset.FashionMNIST().Generate(50, 1)
	for _, fn := range []func(){
		func() { d.SplitDirichlet(0, 1, 1) },
		func() { d.SplitDirichlet(2, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
