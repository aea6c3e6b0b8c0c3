// Command perfbench is the repository benchmark: it runs a real FedSZ
// federation in one process over loopback TCP — coordinator, optional
// edge, and two closed-loop clients — on a named workload and prints
// its end-to-end metrics (or, with --trace 1, its per-layer split) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload fedsz-flat --seed 1 --seconds 32 --trace 0
//
// Every input is generated from --seed. Each committed global model is
// checked against the exact FedAvg of the round's updates; a bound
// violation, a non-finite value, a dropped participant or a byte count
// that differs between repeats of the same seed marks the run incorrect.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// timedSessions is how many times a timed run sets the federation up
// from scratch; setup_s is their median and the round samples pool.
const timedSessions = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: fedsz-flat, plain-flat or fedsz-hier")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 32, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*workloadName)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fp := fingerprint(w.name, *seed, *trace)
	printComment("fingerprint", fp)

	window := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, window)
	} else {
		res, err = timedRun(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printComment prints a '#'-prefixed JSON line ahead of the result.
func printComment(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("# %s %s\n", tag, b)
}

// runSessions runs n sessions of window/n each with a garbage
// collection before each, so every session starts from the same heap.
func runSessions(w workload, seed int64, window time.Duration, n int, tr *tracer) ([]*sessionResult, error) {
	var out []*sessionResult
	for i := 0; i < n; i++ {
		runtime.GC()
		s, err := runSession(w, seed, window/time.Duration(n), tr, nil)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// summary pools the sessions of one run.
type summary struct {
	walls              []float64 // ms, sorted
	sessionP50         []float64 // ms, per session
	p50, tail, tailPct float64
	perSecond          float64
	setup              float64 // s, median over sessions
	allocMB, peakMB    float64
	uplink, downlink   float64
	ratio, maxErr      float64
	sampled, dropped   int
	gateErr            error
}

func summarize(w workload, ss []*sessionResult) summary {
	var s summary
	var setups, peaks []float64
	var rounds int
	var elapsed time.Duration
	var alloc uint64
	for i, r := range ss {
		var walls []float64
		for _, d := range r.walls {
			walls = append(walls, float64(d.Nanoseconds())/1e6)
		}
		s.walls = append(s.walls, walls...)
		s.sessionP50 = append(s.sessionP50, median(walls))
		rounds += r.rounds()
		elapsed += r.elapsed
		alloc += r.allocBytes
		setups = append(setups, r.setup.Seconds())
		peaks = append(peaks, float64(r.peakHeap)/1e6)
		s.sampled += r.sampled
		s.dropped += r.dropped
		s.maxErr = math.Max(s.maxErr, r.maxErr)
		if r.gateErr != nil && s.gateErr == nil {
			s.gateErr = r.gateErr
		}
		// Every session replays the same seed: its byte counts must
		// repeat exactly.
		if i > 0 && (r.uplink != ss[0].uplink || r.ratio != ss[0].ratio) && s.gateErr == nil {
			s.gateErr = fmt.Errorf("session %d: uplink %.1f B/round ratio %v, session 0 had %.1f B/round ratio %v",
				i, r.uplink, r.ratio, ss[0].uplink, ss[0].ratio)
		}
	}
	sort.Float64s(s.walls)
	s.p50 = quantile(s.walls, 0.5)
	// The highest percentile with at least ten rounds beyond it.
	if n := len(s.walls); n > 10 {
		s.tail = s.walls[n-11]
		s.tailPct = 100 * float64(n-10) / float64(n)
	}
	s.perSecond = float64(rounds) / elapsed.Seconds()
	s.setup = median(setups)
	s.allocMB = float64(alloc) / 1e6 / float64(rounds)
	s.peakMB = median(peaks)
	s.uplink, s.downlink, s.ratio = ss[0].uplink, ss[0].downlink, ss[0].ratio
	switch {
	case s.gateErr != nil:
	case s.dropped > 0:
		s.gateErr = fmt.Errorf("%d of %d participations dropped on clean loopback", s.dropped, s.sampled)
	case !w.fedsz && s.maxErr != 0:
		s.gateErr = fmt.Errorf("uncompressed workload committed error %g× the bound", s.maxErr)
	}
	return s
}

// result is the run's JSON result: attempted and failed count client
// participations, and any gate failure marks it incorrect.
func (s summary) result(metrics map[string]metric) *result {
	return &result{
		Correct:   s.gateErr == nil,
		Attempted: s.sampled,
		Failed:    s.dropped,
		Metrics:   metrics,
	}
}

// report prints what the JSON result cannot carry: the tail's
// percentile and sample count, the gate's figures and any failure.
func (s summary) report(mode string) {
	r := map[string]any{
		"mode":               mode,
		"rounds":             len(s.walls),
		"session_p50_ms":     s.sessionP50,
		"round_tail_pct":     s.tailPct,
		"max_err_over_bound": s.maxErr,
		"drop_rate":          float64(s.dropped) / math.Max(1, float64(s.sampled)),
	}
	if s.gateErr != nil {
		r["gate_error"] = s.gateErr.Error()
	}
	printComment("report", r)
}

func timedRun(w workload, seed int64, window time.Duration) (*result, error) {
	ss, err := runSessions(w, seed, window, timedSessions, nil)
	if err != nil {
		return nil, err
	}
	s := summarize(w, ss)
	s.report("timed")
	if len(s.walls) <= 10 {
		return nil, fmt.Errorf("only %d timed rounds; round_tail_ms needs more than 10, so give more --seconds", len(s.walls))
	}
	return s.result(withUnits(endToEnd, map[string]float64{
		"setup_s":                  s.setup,
		"round_p50_ms":             s.p50,
		"round_tail_ms":            s.tail,
		"rounds_per_s":             s.perSecond,
		"uplink_bytes_per_round":   s.uplink,
		"downlink_bytes_per_round": s.downlink,
		"compression_ratio":        s.ratio,
		"alloc_mb_per_round":       s.allocMB,
		"peak_heap_mb":             s.peakMB,
	})), nil
}
