package transport

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"fedsz/internal/adapt"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// EdgeConfig parameterizes a regional edge aggregator.
type EdgeConfig struct {
	// Upstream dials the coordinator (or a parent edge — tiers nest).
	// The edge joins it with MsgJoinEdge and participates in its rounds
	// like a client whose uplink is one partial sum per round.
	Upstream func() (net.Conn, error)
	// Codec decodes region client uplinks (nil = fl.PlainCodec). It
	// must match the clients' codec, exactly as on a flat server.
	Codec fl.Codec
	// MinClients gates the edge's first regional round (default 1).
	MinClients int
	// RoundDeadline cuts regional stragglers: a region member whose
	// update has not fully arrived this long after the regional
	// broadcast is dropped. Set it below the coordinator's deadline so
	// the partial ships before the edge itself is cut. 0 waits.
	RoundDeadline time.Duration
	// BandwidthBps rate-limits every connection, upstream included
	// (0 = unlimited).
	BandwidthBps float64
	// Shards is the regional aggregator shard count (0 = auto).
	Shards int
	// Checksum stamps outgoing partial frames with CRC32C so the
	// upstream folds only verified regional sums.
	Checksum bool
	// Lossless names an optional lossless codec for packing the
	// partial frame's float64 sums ("" = raw).
	Lossless string
	// NoSpanTrailer suppresses the span-summary trailer on upstream
	// partial frames, making this edge behave like a pre-tracing build:
	// its region still folds and forwards normally, but its subtree is
	// absent from the upstream round tree. Mixed-version tests use it;
	// it is also the escape hatch if a trailer ever bothers an old
	// upstream.
	NoSpanTrailer bool
	// OnPartial observes each regional round's outcome: how many
	// client-level updates the region folded and the partial frame's
	// wire size.
	OnPartial func(round, updates, wireBytes int)
	// Logger, if non-nil, receives join/leave/drop diagnostics.
	Logger *slog.Logger
}

// Edge is a regional fold-and-forward aggregator: it accepts region
// clients (and nested edges) on the same protocol the coordinator
// speaks and runs the coordinator's round engine over them, folding
// their updates through a streaming sharded aggregator, then forwards
// one partial sum upstream per round. The coordinator folds partial
// sums and direct clients interchangeably, so regions cut its fan-in
// from clients to edges without changing the committed global model:
// the partial carries the unnormalized weighted sum, which composes
// exactly under FedAvg.
type Edge struct {
	cfg EdgeConfig
	eng *engine
}

// NewEdge validates cfg and returns an edge aggregator.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("transport: edge needs an upstream dialer")
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	return &Edge{cfg: cfg, eng: newEngine(cfg.Codec, cfg.BandwidthBps, cfg.Logger)}, nil
}

// Shutdown stops Serve: the upstream connection closes and the region
// gets the shutdown courtesy. Safe from any goroutine, idempotent.
func (e *Edge) Shutdown() { e.eng.shutdown() }

// Serve joins the upstream, accepts region members on ln, and relays
// rounds until the upstream shuts down: each global-model broadcast
// from upstream fans out to the region, the region's updates fold into
// a fresh regional aggregator, and one partial sum goes back up. It
// returns nil on a clean upstream shutdown (the region is shut down in
// turn) and the first fatal error otherwise.
func (e *Edge) Serve(ln net.Listener) error {
	conn, err := e.cfg.Upstream()
	if err != nil {
		return fmt.Errorf("transport: edge dial upstream: %w", err)
	}
	up := newConnStream(netsim.Limit(conn, e.cfg.BandwidthBps))
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Shutdown unblocks the upstream read by closing its socket.
		select {
		case <-e.eng.stop:
			_ = conn.Close()
		case <-done:
		}
	}()
	defer conn.Close()
	if err := up.writeMsg(MsgJoinEdge, nil); err != nil {
		return err
	}

	go e.eng.accept(ln)
	defer e.eng.close(true)

	for round := 0; ; round++ {
		h, global, err := readRound(up.r)
		if err != nil {
			if e.eng.stopping() {
				return nil
			}
			return err
		}
		if global == nil {
			e.eng.log.Info("upstream shutdown", "rounds", round)
			return nil
		}
		if err := e.runRegionalRound(up, round, h, global); err != nil {
			return err
		}
	}
}

// runRegionalRound fans the round out to the region, folds whatever
// arrives before the regional deadline, and ships the folded partial
// upstream. Per-member failures drop that member and never abort the
// round; an empty region ships an Updates==0 partial so the upstream
// can withdraw the region for the round without killing the edge.
func (e *Edge) runRegionalRound(up *connStream, round int, h roundHeader, global *model.StateDict) error {
	if round == 0 {
		// An edge with nobody to serve still answers: it ships an empty
		// partial, so the wait's error needs no handling.
		_ = e.eng.wait(e.cfg.MinClients, e.cfg.RoundDeadline)
	}
	agg := orchestrator.NewAggregator(global, e.cfg.Shards)
	members := e.eng.members()
	obsEdgeMembers.Set(int64(len(members)))
	// The edge relays the upstream's trace context under its own round
	// count, so nested edges tag their spans too; leaf clients drain it.
	h.round = round
	span, priors := e.eng.runRound(members, h, global, e.cfg.RoundDeadline, regionSink{agg})

	// Fold-and-forward: snapshot the regional sum, attach the region's
	// merged plan prior, and ship one partial frame upstream. The sums
	// travel as raw float64 bits (optionally lossless-packed) — the
	// partial is never lossy re-encoded, so a 2-tier federation commits
	// byte-identical FedAvg results to a flat one.
	commitStart := time.Now()
	p := agg.Partial()
	p.Prior = adapt.MergePriorBlobs(priors...)

	// The member conns are quiescent now, so the per-client records are
	// final before the upload — the summary that rides the partial
	// carries the same data the local span will, with pre-upload phase
	// totals (the parent tier attributes the upload itself as forward
	// time on the wire).
	clients, bytesUp, bytesDown := span.finish()
	committed := 0
	for _, c := range clients {
		if c.Outcome == "committed" {
			committed++
		}
	}
	sp := obs.RoundSpan{
		Tier:         "edge",
		Round:        round,
		TraceID:      h.traceID,
		Start:        span.start,
		TotalNs:      time.Since(span.start).Nanoseconds(),
		BroadcastNs:  span.broadcastNs,
		GatherNs:     span.gatherNs,
		DecodeFoldNs: span.decodeFoldNs.Load(),
		CommitNs:     time.Since(commitStart).Nanoseconds(),
		BytesUp:      bytesUp,
		BytesDown:    bytesDown,
		Sampled:      len(members),
		Committed:    committed,
		Dropped:      len(members) - committed,
		Bound:        h.bound,
		Clients:      clients,
	}
	if h.traceID != "" && !e.cfg.NoSpanTrailer {
		// One trailer per region per round, encoded once — the only
		// tracing bytes this edge adds to the upstream hop.
		p.Span = obs.EncodeSpanSummary(&obs.SpanSummary{Span: sp, Children: span.childSummaries()})
	}
	frame, err := hier.EncodePartial(p, hier.WireOptions{
		Checksum: e.cfg.Checksum,
		Lossless: e.cfg.Lossless,
	})
	if err != nil {
		return fmt.Errorf("transport: edge encode partial: %w", err)
	}
	err = up.writeMsg(MsgPartialSum, func(w io.Writer) error {
		_, werr := w.Write(frame)
		return werr
	})
	if err != nil {
		return err
	}
	obsEdgeRounds.Inc()
	if p.Updates == 0 {
		obsEdgeEmptyRounds.Inc()
	}
	// The local trace keeps the post-upload totals: this tier's view of
	// the round includes shipping its partial.
	sp.TotalNs = time.Since(span.start).Nanoseconds()
	sp.CommitNs = time.Since(commitStart).Nanoseconds()
	obs.DefaultTrace.Add(sp)
	if e.cfg.OnPartial != nil {
		e.cfg.OnPartial(round, p.Updates, len(frame))
	}
	e.eng.log.Debug("edge forwarded partial",
		"round", round, "updates", p.Updates, "weight", p.TotalWeight, "bytes", len(frame))
	return nil
}
