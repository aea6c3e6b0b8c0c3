package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// roundSink receives one round's folded contributions. The
// coordinator's sink is its sampled *orchestrator.Round; an edge's is
// regionSink over its regional aggregator.
type roundSink interface {
	// Contributor opens the streaming fold of one client update.
	Contributor(id string, weight float64) (*orchestrator.Contributor, error)
	// PartialContributor opens the fold of one nested edge's partial
	// sum standing in for updates client-level contributions.
	PartialContributor(id string, weight float64, updates int) (*orchestrator.Contributor, error)
	// Drop withdraws a member that contributed nothing this round.
	Drop(id string, reason orchestrator.DropReason)
}

// registry admits and retires members alongside the engine's
// connection table (*orchestrator.Coordinator is one).
type registry interface {
	Join(id string) error
	Leave(id string)
}

// joinTimeout bounds how long an accepted connection may sit silent
// before sending its join; without it an idle connect would park a
// goroutine and a socket for the server's lifetime.
const joinTimeout = 30 * time.Second

// engine is the region loop every aggregating tier runs: the
// coordinator and each edge accept members on one listener, broadcast
// a round header and the global model to them, and fold their replies
// into a roundSink. The tiers differ only in the sink and in what they
// do with the folded result.
type engine struct {
	codec        fl.Codec // decodes member updates
	bandwidthBps float64  // per-connection rate limit (0 = unlimited)
	log          *slog.Logger
	reg          registry // nil = no registry beyond the table

	stop     chan struct{} // closed by shutdown
	stopOnce sync.Once
	dead     chan struct{} // closed when the accept loop dies

	mu         sync.Mutex
	conns      map[string]*connStream
	pending    map[*connStream]struct{} // accepted, join not yet read
	edges      map[string]bool          // ids that joined with MsgJoinEdge
	nextID     int
	nextEdgeID int
	joined     chan struct{} // capacity-1 doorbell rung on every join
	closed     bool
	acceptErr  error // why the accept loop died
}

// discardLogger stands in for a nil config Logger: its handler is
// disabled at every level, so log calls cost one Enabled check.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

func newEngine(codec fl.Codec, bandwidthBps float64, log *slog.Logger) *engine {
	if codec == nil {
		codec = fl.PlainCodec{}
	}
	if log == nil {
		log = discardLogger
	}
	return &engine{
		codec:        codec,
		bandwidthBps: bandwidthBps,
		log:          log,
		stop:         make(chan struct{}),
		dead:         make(chan struct{}),
		conns:        make(map[string]*connStream),
		pending:      make(map[*connStream]struct{}),
		edges:        make(map[string]bool),
		joined:       make(chan struct{}, 1),
	}
}

// shutdown asks the tier to stop; safe from any goroutine, idempotent.
func (e *engine) shutdown() { e.stopOnce.Do(func() { close(e.stop) }) }

// stopping reports whether shutdown was requested.
func (e *engine) stopping() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// accept registers members from ln until it closes. Direct clients
// (MsgJoin) and edge aggregators (MsgJoinEdge) share the listener —
// the join type byte is the whole protocol difference — so tiers stack
// arbitrarily deep.
func (e *engine) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			e.mu.Lock()
			e.acceptErr = err
			e.mu.Unlock()
			close(e.dead)
			return
		}
		cs := newConnStream(netsim.Limit(conn, e.bandwidthBps))
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			continue
		}
		e.pending[cs] = struct{}{}
		e.mu.Unlock()
		go e.join(cs)
	}
}

// join reads one accepted connection's join and registers it.
func (e *engine) join(cs *connStream) {
	_ = cs.conn.SetReadDeadline(time.Now().Add(joinTimeout))
	t, err := cs.readMsgType()
	// Pending-removal, the close check and registration share one
	// critical section, so close sees this connection in pending or in
	// conns — never in neither — and the table never holds a member the
	// registry does not.
	e.mu.Lock()
	delete(e.pending, cs)
	if err != nil || (t != MsgJoin && t != MsgJoinEdge) || e.closed {
		e.mu.Unlock()
		e.log.Debug("rejecting connection", "msg", t.String(), "err", err)
		_ = cs.conn.Close()
		return
	}
	var id string
	if t == MsgJoinEdge {
		e.nextEdgeID++
		id = fmt.Sprintf("edge-%04d", e.nextEdgeID)
	} else {
		e.nextID++
		id = fmt.Sprintf("client-%04d", e.nextID)
	}
	if e.reg != nil {
		if err := e.reg.Join(id); err != nil {
			e.mu.Unlock()
			e.log.Debug("rejecting connection", "id", id, "err", err)
			_ = cs.conn.Close()
			return
		}
	}
	e.conns[id] = cs
	if t == MsgJoinEdge {
		e.edges[id] = true
	}
	e.mu.Unlock()
	_ = cs.conn.SetReadDeadline(time.Time{})
	e.log.Debug("member joined", "id", id)
	select {
	case e.joined <- struct{}{}:
	default:
	}
}

// members returns the ids currently joined.
func (e *engine) members() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.conns))
	for id := range e.conns {
		ids = append(ids, id)
	}
	return ids
}

// wait blocks until need members have joined, shutdown fires, budget
// (when positive) expires, or the accept loop has died. A dead
// listener with nobody left fails: no member can ever arrive.
func (e *engine) wait(need int, budget time.Duration) error {
	var expire <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget)
		defer t.Stop()
		expire = t.C
	}
	// The doorbell drops signals under a burst of joins; the ticker
	// bounds how long a dropped wakeup can stall the check.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		n, dead := len(e.conns), e.acceptErr
		e.mu.Unlock()
		if n >= need || e.stopping() {
			return nil
		}
		if dead != nil {
			if n > 0 {
				return nil
			}
			return fmt.Errorf("transport: listener closed with no clients left: %w", dead)
		}
		select {
		case <-e.joined:
		case <-tick.C:
		case <-expire:
			return nil
		case <-e.stop:
			return nil
		case <-e.dead:
		}
	}
}

// drop retires a member after a connection failure: it leaves the
// table and the registry and its connection closes. Safe to call
// twice.
func (e *engine) drop(id string, cause error, reason orchestrator.DropReason) {
	e.mu.Lock()
	cs, ok := e.conns[id]
	delete(e.conns, id)
	delete(e.edges, id)
	e.mu.Unlock()
	if !ok {
		return
	}
	_ = cs.conn.Close()
	if e.reg != nil {
		e.reg.Leave(id)
	}
	e.log.Debug("member dropped", "id", id, "reason", reason.String(), "err", cause)
}

// close ends the region when Serve returns: no member registers after
// it, joined members get a MsgShutdown when courtesy is set, and every
// connection closes — never-joined ones too, which unblocks their join
// readers.
func (e *engine) close(courtesy bool) {
	e.mu.Lock()
	e.closed = true
	conns := make([]*connStream, 0, len(e.conns)+len(e.pending))
	for _, cs := range e.conns {
		conns = append(conns, cs)
	}
	joined := len(conns)
	for cs := range e.pending {
		conns = append(conns, cs)
	}
	e.mu.Unlock()
	for i, cs := range conns {
		if courtesy && i < joined {
			_ = cs.writeMsg(MsgShutdown, nil)
		}
		_ = cs.conn.Close()
	}
}

// runRound broadcasts h and global to members concurrently, then folds
// the reply of every member that received them into sink. timeout
// bounds each broadcast write and, counted from the end of the
// broadcast, the whole gather (0 = none): a straggler's read fails,
// its contribution is withdrawn and it is dropped, so the round always
// settles with the on-time subset. A member that fails in either phase
// is dropped from the sink and the table; no failure aborts the round.
// It returns the round's trace state and the plan priors that arrived.
func (e *engine) runRound(members []string, h roundHeader, global *model.StateDict, timeout time.Duration, sink roundSink) (*roundSpanState, [][]byte) {
	span := newRoundSpanState()
	if ra, ok := e.codec.(fl.ReferenceAware); ok {
		ra.SetReference(global)
	}
	fail := func(id string, err error) {
		reason := dropReasonFor(err)
		span.outcome(id, reason.String())
		sink.Drop(id, reason)
		e.drop(id, err, reason)
	}
	// A member whose connection another failure already dropped.
	vanished := func(id string) {
		span.outcome(id, orchestrator.DropDisconnect.String())
		sink.Drop(id, orchestrator.DropDisconnect)
	}

	// Broadcast: each connection's rate limit is independent, so round
	// start stays one transfer, not members×transfer; a stalled write
	// means a dead member and cannot hang the round. The global dict is
	// immutable here, safe to stream from many goroutines.
	var live []string
	var lmu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range members {
		e.mu.Lock()
		cs, ok := e.conns[id]
		e.mu.Unlock()
		span.track(id, cs)
		if !ok {
			vanished(id)
			continue
		}
		wg.Add(1)
		go func(id string, cs *connStream) {
			defer wg.Done()
			if timeout > 0 {
				_ = cs.conn.SetWriteDeadline(time.Now().Add(timeout))
			}
			if err := writeRound(cs, h, global); err != nil {
				fail(id, err)
				return
			}
			_ = cs.conn.SetWriteDeadline(time.Time{})
			lmu.Lock()
			live = append(live, id)
			lmu.Unlock()
		}(id, cs)
	}
	wg.Wait()
	span.broadcastNs = time.Since(span.start).Nanoseconds()

	// Gather: every collector settles (commits or aborts) before wg
	// returns, which is the quiescence a commit requires.
	gatherStart := span.startGather()
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	var priors [][]byte
	for _, id := range live {
		e.mu.Lock()
		cs := e.conns[id]
		e.mu.Unlock()
		if cs == nil {
			vanished(id)
			continue
		}
		wg.Add(1)
		go func(id string, cs *connStream) {
			defer wg.Done()
			prior, err := e.collect(sink, id, cs, deadline, span)
			if err != nil {
				fail(id, err)
				return
			}
			span.settle(id)
			if len(prior) > 0 {
				lmu.Lock()
				priors = append(priors, prior)
				lmu.Unlock()
			}
		}(id, cs)
	}
	wg.Wait()
	span.gatherNs = time.Since(gatherStart).Nanoseconds()
	return span, priors
}

// collect reads one member's reply into sink and returns its plan
// prior. A client streams a MsgUpdate through the codec, tensor by
// tensor, followed by its plan-prior trailer; a nested edge sends one
// MsgPartialSum, verified before any of it folds. Any failure after
// the fold opened withdraws the member's contribution, tagged with the
// cause: a checksum failure quarantines the member as corrupt, not as
// a straggler.
func (e *engine) collect(sink roundSink, id string, cs *connStream, deadline time.Time, span *roundSpanState) ([]byte, error) {
	if err := cs.conn.SetReadDeadline(deadline); err != nil {
		return nil, fmt.Errorf("transport: set deadline: %w", err)
	}
	e.mu.Lock()
	want := MsgUpdate
	if e.edges[id] {
		want = MsgPartialSum
	}
	e.mu.Unlock()
	t, err := cs.readMsgType()
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, fmt.Errorf("%w: expected %v, got %v", ErrProtocol, want, t)
	}
	var ct *orchestrator.Contributor
	var prior []byte
	if want == MsgPartialSum {
		ct, prior, err = foldPartial(sink, id, cs, span)
	} else {
		ct, prior, err = e.foldUpdate(sink, id, cs, span)
	}
	if err != nil {
		if ct != nil {
			ct.AbortReason(dropReasonFor(err))
		}
		return nil, err
	}
	if ct == nil {
		// An empty region is a round-level miss, not a dead aggregator:
		// it is withdrawn for this round and keeps its connection.
		span.outcome(id, "empty_region")
		sink.Drop(id, orchestrator.DropDeadline)
		e.log.Debug("empty region withdrawn for this round", "id", id)
	} else if err := ct.Commit(); err != nil {
		return nil, err
	}
	// The member survived the round; clear its deadline.
	return prior, cs.conn.SetReadDeadline(time.Time{})
}

// foldUpdate streams one client's MsgUpdate body into sink. The
// returned contributor, when non-nil, is open and must be committed or
// aborted by the caller.
func (e *engine) foldUpdate(sink roundSink, id string, cs *connStream, span *roundSpanState) (*orchestrator.Contributor, []byte, error) {
	samples, err := binary.ReadUvarint(cs.r)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: update sample count", ErrProtocol)
	}
	ct, err := sink.Contributor(id, float64(samples))
	if err != nil {
		return nil, nil, err
	}
	decodeStart := time.Now()
	err = fl.DecodeEntries(e.codec, cs.r, ct.Fold)
	span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
	if err != nil {
		return ct, nil, err
	}
	// The plan-prior trailer rides behind the codec frame so the update
	// stays one uplink write per round. The update is fully folded by
	// now, so losing the trailer must withdraw it too, or the sums keep
	// weight the total never sees.
	prior, err := readPrior(cs.r)
	return ct, prior, err
}

// foldPartial folds one nested edge's MsgPartialSum into sink. It
// returns a nil contributor and nil error for an empty region
// (Updates == 0).
func foldPartial(sink roundSink, id string, cs *connStream, span *roundSpanState) (*orchestrator.Contributor, []byte, error) {
	decodeStart := time.Now()
	defer func() { span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds()) }()
	p, err := hier.DecodePartialFrom(cs.r)
	if err != nil {
		return nil, nil, err
	}
	// The span-summary trailer is observability, never control flow: an
	// undecodable one (newer edge, damaged blob — the frame itself
	// already passed its checksum) degrades to "no subtree".
	if len(p.Span) > 0 {
		if sum, err := obs.DecodeSpanSummary(p.Span); err == nil {
			span.attachChild(id, sum)
		}
	}
	if p.Updates == 0 {
		return nil, nil, nil
	}
	ct, err := sink.PartialContributor(id, p.TotalWeight, p.Updates)
	if err != nil {
		return nil, nil, err
	}
	for _, en := range p.Entries {
		if err := ct.FoldPartial(en); err != nil {
			return ct, nil, err
		}
	}
	return ct, p.Prior, nil
}

// regionSink folds an edge's region into its aggregator. The edge
// keeps no per-round roster, so a withdrawn member needs no
// accounting.
type regionSink struct{ agg *orchestrator.Aggregator }

func (s regionSink) Contributor(_ string, weight float64) (*orchestrator.Contributor, error) {
	return s.agg.Contributor(weight)
}

func (s regionSink) PartialContributor(_ string, weight float64, updates int) (*orchestrator.Contributor, error) {
	return s.agg.PartialContributor(weight, updates)
}

func (regionSink) Drop(string, orchestrator.DropReason) {}

// dropReasonFor classifies a collection failure: a read-deadline
// timeout is a straggler cut, a frame that failed structural or
// checksum validation is corruption, anything else is a transport
// death. Timeout wins over corruption — a deadline firing mid-frame
// truncates the stream, which the decoder also reports as ErrCorrupt,
// but the timeout in the chain names the true cause.
func dropReasonFor(err error) orchestrator.DropReason {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return orchestrator.DropDeadline
	}
	if errors.Is(err, core.ErrCorrupt) {
		return orchestrator.DropCorrupt
	}
	return orchestrator.DropDisconnect
}

// roundSpanState accumulates one round's trace while the round runs:
// per-participant byte baselines, outcomes and settle times, the phase
// walls, the cumulative decode→fold time summed across the round's
// concurrent collectors, and any span summaries shipped up by region
// edges.
type roundSpanState struct {
	start                 time.Time
	broadcastNs, gatherNs int64
	decodeFoldNs          atomic.Int64

	mu          sync.Mutex
	gatherStart time.Time
	clients     map[string]*spanEntry
	children    []obs.ChildSummary
}

type spanEntry struct {
	cs       *connStream
	rx0, tx0 int64
	outcome  string
	settleNs int64
}

func newRoundSpanState() *roundSpanState {
	return &roundSpanState{start: time.Now(), clients: make(map[string]*spanEntry)}
}

// track snapshots a participant's conn-level byte counters at round
// start; cs may be nil for a participant whose connection vanished.
func (st *roundSpanState) track(id string, cs *connStream) {
	e := &spanEntry{cs: cs}
	if cs != nil {
		e.rx0 = cs.bytesRead()
		e.tx0 = cs.bytesWritten()
	}
	st.mu.Lock()
	st.clients[id] = e
	st.mu.Unlock()
}

// startGather marks the start of the gather phase; participant settle
// times are measured from this instant, which it returns.
func (st *roundSpanState) startGather() time.Time {
	st.mu.Lock()
	st.gatherStart = time.Now()
	t := st.gatherStart
	st.mu.Unlock()
	return t
}

// settle records when a participant's contribution finished
// (committed or dropped), measured from gather start; the first
// writer wins and pre-gather events record nothing.
func (st *roundSpanState) settle(id string) {
	st.mu.Lock()
	if e := st.clients[id]; e != nil && e.settleNs == 0 && !st.gatherStart.IsZero() {
		e.settleNs = time.Since(st.gatherStart).Nanoseconds()
	}
	st.mu.Unlock()
}

// outcome records why a participant left the round; the first writer
// wins (a drop's true cause precedes cleanup-path noise). Leaving the
// round settles the participant.
func (st *roundSpanState) outcome(id, o string) {
	st.mu.Lock()
	if e := st.clients[id]; e != nil {
		if e.outcome == "" {
			e.outcome = o
		}
		if e.settleNs == 0 && !st.gatherStart.IsZero() {
			e.settleNs = time.Since(st.gatherStart).Nanoseconds()
		}
	}
	st.mu.Unlock()
}

// attachChild stashes one region's decoded span summary for the
// round's trace tree.
func (st *roundSpanState) attachChild(id string, sum *obs.SpanSummary) {
	st.mu.Lock()
	st.children = append(st.children, obs.ChildSummary{ID: id, Sum: sum})
	st.mu.Unlock()
}

// childSummaries returns the summaries attached this round.
func (st *roundSpanState) childSummaries() []obs.ChildSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.children
}

// finish renders the per-client records, newest byte counters minus
// the round-start baselines. Participants with no recorded outcome
// were never dropped, so they committed.
func (st *roundSpanState) finish() (clients []obs.SpanClient, up, down int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	clients = make([]obs.SpanClient, 0, len(st.clients))
	for id, e := range st.clients {
		c := obs.SpanClient{ID: id, Outcome: e.outcome, TimeNs: e.settleNs}
		if c.Outcome == "" {
			c.Outcome = "committed"
		}
		if e.cs != nil {
			c.BytesUp = e.cs.bytesRead() - e.rx0
			c.BytesDown = e.cs.bytesWritten() - e.tx0
		}
		up += c.BytesUp
		down += c.BytesDown
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].ID < clients[j].ID })
	return clients, up, down
}
