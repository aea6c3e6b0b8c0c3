package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"fedsz/internal/model"
)

// TestTracingTransparent checks that the traced run measures the same
// system as the timed one: with the same seed, clients put
// byte-identical uplinks on the wire and every committed global model
// is identical, on every workload. -short shrinks the models so the
// test fits under the race detector.
func TestTracingTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() {
				w.arch = model.AlexNet(32)
			}
			plain, traced := newRecorder(), newRecorder()
			a, err := runSession(w, 7, time.Second, nil, plain)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			b, err := runSession(w, 7, time.Second, newTracer(), traced)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			for _, r := range []*sessionResult{a, b} {
				if r.gateErr != nil {
					t.Fatalf("correctness gate: %v", r.gateErr)
				}
			}
			n := min(len(plain.globals), len(traced.globals))
			if n < warmupRounds+nVariants {
				t.Fatalf("only %d rounds to compare", n)
			}
			for r := 0; r < n; r++ {
				for i := range plain.uplinks {
					p, q := plain.uplinkSum(i, r), traced.uplinkSum(i, r)
					if p == nil || string(p) != string(q) {
						t.Errorf("round %d: client %d uplink differs between traced and untraced runs", r, i)
					}
				}
				if plain.globals[r] != traced.globals[r] {
					t.Errorf("round %d: committed global differs between traced and untraced runs", r)
				}
			}
			if a.uplink != b.uplink || a.ratio != b.ratio {
				t.Errorf("uplink %v B ratio %v untraced, %v B ratio %v traced", a.uplink, a.ratio, b.uplink, b.ratio)
			}
		})
	}
}

// TestCheckGlobal checks the correctness gate on the exact FedAvg and
// on globals that break it.
func TestCheckGlobal(t *testing.T) {
	w := workloads[0]
	w.arch = model.AlexNet(64)
	in, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := func() *model.StateDict {
		sd := model.NewStateDict()
		for _, x := range in.expect[0] {
			e, _ := in.updates[0][0].Get(x.name)
			if e.DType == model.Float32 {
				e.Tensor = e.Tensor.Clone()
				copy(e.Tensor.Data(), x.f32)
			}
			if err := sd.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		return sd
	}
	if r, err := checkGlobal(exact(), in.expect[0]); err != nil || r != 0 {
		t.Fatalf("exact FedAvg: ratio %v, err %v", r, err)
	}
	var lossyName, exactName string
	for _, x := range in.expect[0] {
		if x.bound > 0 && lossyName == "" {
			lossyName = x.name
		}
		if x.bound == 0 && x.f32 != nil && exactName == "" {
			exactName = x.name
		}
	}
	for _, tc := range []struct {
		name    string
		entry   string
		delta   func(bound float64) float32
		wantErr bool
	}{
		{"within bound", lossyName, func(b float64) float32 { return float32(b / 2) }, false},
		{"beyond bound", lossyName, func(b float64) float32 { return float32(b * 1.5) }, true},
		{"not finite", lossyName, func(float64) float32 { return float32(math.NaN()) }, true},
		{"lossless entry changed", exactName, func(float64) float32 { return 1e-3 }, true},
	} {
		g := exact()
		e, _ := g.Get(tc.entry)
		var bound float64
		for _, x := range in.expect[0] {
			if x.name == tc.entry {
				bound = x.bound
			}
		}
		e.Tensor.Data()[0] += tc.delta(bound)
		_, err := checkGlobal(g, in.expect[0])
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the metrics
// the benchmark reports and the workloads it knows.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		if _, err := workloadByName(bw.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		kind string
		got  []def
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %s %s %s", c.kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
}

// TestUnion checks the interval union behind self times and coverage.
func TestUnion(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 4}, {6, 8}}, 0, 10, 6},
		{[][2]int64{{0, 4}, {2, 6}, {5, 7}}, 0, 10, 7},
		{[][2]int64{{3, 5}, {0, 10}}, 0, 10, 10},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{12, 20}}, 0, 10, 0},
	} {
		if got := union(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("union(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestReplayLayers checks that the layer replays run on every workload
// and report only metrics BENCHMARK.json declares.
func TestReplayLayers(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, w := range workloads {
		w.arch = model.AlexNet(32)
		in, err := makeInputs(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayLayers(w, in)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for k := range m {
			if !known[k] {
				t.Errorf("%s: undeclared metric %q", w.name, k)
			}
		}
		if w.fedsz && m["sz2.compress_ns_per_elem"] <= 0 {
			t.Errorf("%s: sz2 replay reported %v", w.name, m["sz2.compress_ns_per_elem"])
		}
	}
}
