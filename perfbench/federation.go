package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fedsz"
	"fedsz/internal/core"
	"fedsz/internal/model"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
	"fedsz/internal/transport"
)

// warmupRounds are committed before the timed window opens: round 0
// carries the joins, round 1 the first steady-state pass.
const warmupRounds = 2

// traceRing is the program's RoundSpan ring size: it must retain every
// span of a session, rounds × tiers, which stays far below.
const traceRing = 1 << 15

// sessionResult is what one federation session measured.
type sessionResult struct {
	setup   time.Duration   // session start → first broadcast toward the clients
	walls   []time.Duration // commit-to-commit wall of every timed round
	elapsed time.Duration   // timed window: commit warmupRounds-1 → last commit

	// Per-round byte counts over one variant cycle starting at the
	// first timed round, summed over clients (client-facing links).
	uplink, downlink float64
	ratio            float64 // Σ serialized update size / Σ encoded update size
	allocBytes       uint64  // TotalAlloc over the timed window
	peakHeap         uint64  // max heap object bytes sampled in the window

	sampled, dropped int     // participations on the client-facing tier
	maxErr           float64 // worst committed error over the REL bound
	gateErr          error   // first correctness failure

	spans    []fedsz.RoundSpan // this session's program spans, every tier
	commitAt []time.Time       // commit instant of every round

	// Traced sessions only.
	in          *inputs
	partialSize int     // hier: edge partial frame bytes
	frames      float64 // transport frames per timed round
}

// rounds returns the number of timed rounds.
func (r *sessionResult) rounds() int { return len(r.walls) }

// clientTier is the tier whose RoundSpans describe the client links.
func (w workload) clientTier() string {
	if w.hier {
		return "edge"
	}
	return "coordinator"
}

// runSession builds one federation over loopback TCP, runs warm-up
// rounds and then rounds until window has elapsed, and tears it down.
// The clients run a closed loop: RunClient sends the next update only
// after the next global model arrives. With tr non-nil the codec,
// connections and train function are traced; with rec non-nil the
// client uplinks and committed globals are recorded.
func runSession(w workload, seed int64, window time.Duration, tr *tracer, rec *recorder) (*sessionResult, error) {
	obs.DefaultTrace.Resize(traceRing) // no-op once sized
	start := time.Now()
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	res := &sessionResult{}
	if tr != nil {
		// Only a traced session's inputs outlive it: the layer replays use
		// them. Kept longer, they would grow later sessions' live heap,
		// so the collector would run less often and those sessions would
		// time faster.
		res.in = in
	}
	var (
		mu          sync.Mutex
		committed   int // rounds committed so far = the round in flight
		windowStart time.Time
		memStart    runtime.MemStats
		framesStart float64
		sampler     *heapSampler
		srv         *transport.Orchestrated
	)
	round := func() int {
		mu.Lock()
		defer mu.Unlock()
		return committed
	}
	wrap := func(actor string) (*codec, error) {
		c, err := w.newCodec()
		if err != nil {
			return nil, err
		}
		return &codec{inner: c, tr: tr, actor: actor, round: round}, nil
	}
	clients := make([]*codec, nClients)
	for i := range clients {
		if clients[i], err = wrap(fmt.Sprintf("client%d", i)); err != nil {
			return nil, err
		}
	}
	serverCodec, err := wrap("coordinator")
	if err != nil {
		return nil, err
	}

	// Every listener is bound before anything dials it.
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer coordLn.Close()
	clientLn := coordLn
	var edgeLn net.Listener
	if w.hier {
		if edgeLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer edgeLn.Close()
		clientLn = edgeLn
	}
	if tr != nil {
		// The tier that reads client uplinks serves on the traced listener.
		clientLn = &tracedListener{Listener: clientLn, wait: &tr.serverReadWait}
		if w.hier {
			edgeLn = clientLn
		} else {
			coordLn = clientLn
		}
	}

	onRound := func(r int, global *model.StateDict, _ orchestrator.RoundStats) {
		now := time.Now()
		e, gerr := checkGlobal(global, in.expect[r%nVariants])
		// The check runs between commit r and round r+1's broadcast.
		tr.add(span{Round: r + 1, Actor: "bench", Name: "bench.check"}, now, time.Now())
		if rec != nil {
			rec.global(global)
		}
		mu.Lock()
		defer mu.Unlock()
		committed = r + 1
		res.commitAt = append(res.commitAt, now)
		if tr != nil {
			tr.commit(r)
		}
		if e > res.maxErr {
			res.maxErr = e
		}
		if gerr != nil && res.gateErr == nil {
			res.gateErr = fmt.Errorf("round %d: %w", r, gerr)
		}
		switch {
		case r == warmupRounds-1:
			windowStart = now
			runtime.ReadMemStats(&memStart)
			if tr != nil {
				framesStart = transportFrames()
			}
			sampler = startHeapSampler()
		case r >= warmupRounds && res.elapsed == 0:
			res.walls = append(res.walls, now.Sub(res.commitAt[r-1]))
			// The window spans at least one full cycle of the updates.
			if (now.Sub(windowStart) >= window && len(res.walls) >= nVariants) || res.gateErr != nil {
				res.elapsed = now.Sub(windowStart)
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				res.allocBytes = m.TotalAlloc - memStart.TotalAlloc
				res.peakHeap = sampler.stop()
				if tr != nil {
					res.frames = (transportFrames() - framesStart) / float64(len(res.walls))
				}
			}
		}
		if res.elapsed > 0 || res.gateErr != nil {
			srv.Shutdown()
		}
	}
	minClients := nClients
	if w.hier {
		minClients = 1 // the edge
	}
	srv, err = transport.NewOrchestrated(transport.OrchestratedConfig{
		Codec:      serverCodec,
		MinClients: minClients,
		Rounds:     1 << 30,
		OnRound:    onRound,
	})
	if err != nil {
		return nil, err
	}
	var edge *transport.Edge
	if w.hier {
		edgeCodec, err := wrap("edge")
		if err != nil {
			return nil, err
		}
		edge, err = transport.NewEdge(transport.EdgeConfig{
			Upstream:   func() (net.Conn, error) { return net.Dial("tcp", coordLn.Addr().String()) },
			Codec:      edgeCodec,
			MinClients: nClients,
			Checksum:   w.checksum,
			OnPartial: func(_, _, wireBytes int) {
				mu.Lock()
				res.partialSize = wireBytes
				mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nClients+2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Serve(coordLn, in.initial); err != nil {
			errs <- fmt.Errorf("coordinator: %w", err)
		}
	}()
	if edge != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := edge.Serve(edgeLn); err != nil {
				errs <- fmt.Errorf("edge: %w", err)
			}
		}()
	}
	for i := 0; i < nClients; i++ {
		conn, err := net.Dial("tcp", clientLn.Addr().String())
		if err != nil {
			// The listener is bound, so this is an environment failure;
			// the process exits on it.
			return nil, err
		}
		if tr != nil {
			conn = &tracedConn{Conn: conn, wait: &tr.clientWriteWait, write: true}
		}
		if rec != nil {
			conn = rec.uplink(i, conn, round)
		}
		train := func(r int, _ *model.StateDict) (*model.StateDict, int, error) {
			return in.updates[i][r%nVariants], clientSamples[i], nil
		}
		if tr != nil {
			train = tr.train(clients[i].actor, train)
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := transport.RunClient(conn, clients[i], train); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
			}
		}(i, conn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	if res.elapsed == 0 {
		if sampler != nil {
			sampler.stop()
		}
		if res.gateErr != nil {
			return nil, res.gateErr
		}
		return nil, errors.New("federation stopped before the timed window closed")
	}
	if err := res.fromSpans(w, in, start, clients); err != nil {
		return nil, err
	}
	return res, nil
}

// fromSpans fills setup, byte counts, participation and the compression
// ratio from the program's RoundSpans and the client codecs' byte
// counts. obs.DefaultTrace is shared by every tier in the process, so
// spans are filtered by tier and by this session's start.
func (res *sessionResult) fromSpans(w workload, in *inputs, start time.Time, clients []*codec) error {
	for _, sp := range fedsz.RoundTrace(0) {
		if !sp.Start.Before(start) {
			res.spans = append(res.spans, sp)
		}
	}
	byRound := map[int]fedsz.RoundSpan{}
	for _, sp := range res.spans {
		if sp.Tier == w.clientTier() {
			byRound[sp.Round] = sp
		}
	}
	first, ok := byRound[0]
	if !ok {
		return fmt.Errorf("no %s span for round 0 (trace ring too small?)", w.clientTier())
	}
	res.setup = first.Start.Sub(start)
	lastRound := warmupRounds + len(res.walls) - 1
	upByVariant := map[int]int64{}
	for r := 0; r <= lastRound; r++ {
		sp, ok := byRound[r]
		if !ok {
			return fmt.Errorf("no %s span for round %d", w.clientTier(), r)
		}
		res.sampled += sp.Sampled
		res.dropped += sp.Dropped
		if r < warmupRounds {
			continue
		}
		// The codec is deterministic, so equal inputs must put equal
		// bytes on the wire in every round.
		k := r % nVariants
		if prev, seen := upByVariant[k]; seen && prev != sp.BytesUp && res.gateErr == nil {
			res.gateErr = fmt.Errorf("round %d uplink %d bytes, an earlier round with the same updates sent %d", r, sp.BytesUp, prev)
		}
		upByVariant[k] = sp.BytesUp
	}
	if len(res.walls) < nVariants {
		return fmt.Errorf("only %d timed rounds, need %d", len(res.walls), nVariants)
	}
	var serialized, enc int64
	for r := warmupRounds; r < warmupRounds+nVariants; r++ {
		res.uplink += float64(byRound[r].BytesUp) / nVariants
		res.downlink += float64(byRound[r].BytesDown) / nVariants
		for c, cl := range clients {
			n, ok := cl.encodedBytes(r)
			if !ok {
				return fmt.Errorf("client %d encoded no update in round %d", c, r)
			}
			enc += n
			serialized += in.serialized[c][r%nVariants]
		}
	}
	res.ratio = float64(serialized) / float64(enc)
	return nil
}

// recorder captures a digest of every client's uplink bytes and of
// every committed global, per round, so runs can be compared for
// identity.
type recorder struct {
	mu      sync.Mutex
	uplinks [nClients]map[int]hash.Hash // client → round → digest
	globals [][sha256.Size]byte
}

func newRecorder() *recorder {
	r := &recorder{}
	for i := range r.uplinks {
		r.uplinks[i] = make(map[int]hash.Hash)
	}
	return r
}

// uplink tees client i's writes into the digest of the round in flight.
func (r *recorder) uplink(i int, conn net.Conn, round func() int) net.Conn {
	return &teeConn{Conn: conn, round: round, write: func(round int, p []byte) {
		r.mu.Lock()
		defer r.mu.Unlock()
		h, ok := r.uplinks[i][round]
		if !ok {
			h = sha256.New()
			r.uplinks[i][round] = h
		}
		h.Write(p)
	}}
}

// uplinkSum returns client i's uplink digest for round r.
func (r *recorder) uplinkSum(i, round int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.uplinks[i][round]; ok {
		return h.Sum(nil)
	}
	return nil
}

func (r *recorder) global(g *model.StateDict) {
	buf, err := core.MarshalStateDict(g)
	if err != nil {
		buf = []byte(err.Error())
	}
	r.mu.Lock()
	r.globals = append(r.globals, sha256.Sum256(buf))
	r.mu.Unlock()
}

type teeConn struct {
	net.Conn
	round func() int
	write func(round int, p []byte)
}

func (c *teeConn) Write(p []byte) (int, error) {
	// The round is read before the bytes leave: once they are out, the
	// coordinator may commit and move on.
	r := c.round()
	n, err := c.Conn.Write(p)
	c.write(r, p[:n])
	return n, err
}

// transportFrames sums the program's frame counter over every message
// type and direction.
func transportFrames() float64 {
	var n float64
	for _, p := range fedsz.Metrics() {
		if p.Name == "fedsz_transport_frames_total" {
			n += p.Value
		}
	}
	return n
}

// heapSampler polls the live heap size (no stop-the-world) and keeps
// the maximum.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}

// quantile returns the q-quantile (0..1) of sorted durations by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
