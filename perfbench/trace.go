package main

import (
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/model"
)

// codec wraps the fl.Codec handed to every federation member. It
// always records each client's encoded update size (the S′ of the
// compression ratio); with a tracer it also records encode, decode and
// fold spans. It implements every optional interface transport and fl
// probe for — EntryStreamer, ReferenceAware, BoundAware, PriorAware —
// and forwards each only where the wrapped codec implements it, so the
// program takes the same paths as with the bare codec.
type codec struct {
	inner fl.Codec
	tr    *tracer // nil: untraced
	actor string
	round func() int // the round in flight

	mu      sync.Mutex
	encoded map[int]int64 // round → encoded update bytes
}

var (
	_ fl.Codec          = (*codec)(nil)
	_ fl.EntryStreamer  = (*codec)(nil)
	_ fl.ReferenceAware = (*codec)(nil)
	_ fl.BoundAware     = (*codec)(nil)
	_ fl.PriorAware     = (*codec)(nil)
)

func (c *codec) Name() string { return c.inner.Name() }

func (c *codec) Encode(sd *model.StateDict) ([]byte, fl.UpdateStats, error) {
	return c.inner.Encode(sd)
}

func (c *codec) Decode(buf []byte) (*model.StateDict, error) { return c.inner.Decode(buf) }

func (c *codec) EncodeTo(w io.Writer, sd *model.StateDict) (fl.UpdateStats, error) {
	r := c.round()
	start := time.Now()
	st, err := c.inner.EncodeTo(w, sd)
	c.tr.add(span{Round: r, Actor: c.actor, Name: "fl.encode"}, start, time.Now())
	if err == nil {
		c.mu.Lock()
		if c.encoded == nil {
			c.encoded = make(map[int]int64)
		}
		c.encoded[r] = st.CompressedBytes
		c.mu.Unlock()
	}
	return st, err
}

// encodedBytes returns the update size this codec encoded in round r.
func (c *codec) encodedBytes(r int) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.encoded[r]
	return n, ok
}

func (c *codec) DecodeFrom(r io.Reader) (*model.StateDict, error) { return c.inner.DecodeFrom(r) }

// DecodeEntriesFrom routes through fl.DecodeEntries on the wrapped
// codec: the entry-streaming path when it has one, its fallback when
// not — exactly what the program would do with the bare codec. Traced,
// the emit callback (the aggregator fold) is timed as child spans.
func (c *codec) DecodeEntriesFrom(r io.Reader, emit func(model.Entry) error) error {
	if c.tr == nil {
		return fl.DecodeEntries(c.inner, r, emit)
	}
	round := c.round()
	var mu sync.Mutex
	var folds []span
	start := time.Now()
	err := fl.DecodeEntries(c.inner, r, func(e model.Entry) error {
		t0 := time.Now()
		ferr := emit(e)
		t1 := time.Now()
		mu.Lock()
		folds = append(folds, span{Round: round, Actor: c.actor, Name: "orchestrator.fold",
			Start: c.tr.ns(t0), End: c.tr.ns(t1), Elems: int64(e.NumElements())})
		mu.Unlock()
		return ferr
	})
	id := c.tr.add(span{Round: round, Actor: c.actor, Name: "fl.decode"}, start, time.Now())
	c.tr.mu.Lock()
	for _, f := range folds {
		f.Parent = id
		c.tr.spans = append(c.tr.spans, f)
		c.tr.spans[len(c.tr.spans)-1].ID = len(c.tr.spans)
	}
	c.tr.mu.Unlock()
	return err
}

func (c *codec) SetReference(ref *model.StateDict) {
	if ra, ok := c.inner.(fl.ReferenceAware); ok {
		ra.SetReference(ref)
	}
}

func (c *codec) SetRoundBound(bound float64) {
	if ba, ok := c.inner.(fl.BoundAware); ok {
		ba.SetRoundBound(bound)
	}
}

func (c *codec) ExportPriorBytes() []byte {
	if pa, ok := c.inner.(fl.PriorAware); ok {
		return pa.ExportPriorBytes()
	}
	return nil
}

func (c *codec) ApplyPriorBytes(raw []byte) error {
	if pa, ok := c.inner.(fl.PriorAware); ok {
		return pa.ApplyPriorBytes(raw)
	}
	return nil
}

// span is one timed call made from the benchmark's own seams. Spans of
// one round share its trace ID once joined with the program's
// RoundSpans.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Round   int    `json:"round"`
	TraceID string `json:"trace_id,omitempty"`
	Actor   string `json:"actor"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's epoch
	End     int64  `json:"end_ns"`
	Elems   int64  `json:"elems,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced session, plus cumulative
// socket wait counters snapshotted at every commit.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// waits[r] are the cumulative wait counters at round r's commit.
	waits map[int][2]int64

	clientWriteWait atomic.Int64 // ns client conns spent in Write
	serverReadWait  atomic.Int64 // ns uplink-reading conns spent in Read
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), waits: make(map[int][2]int64)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its ID; a nil tracer records nothing.
func (t *tracer) add(s span, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s.Start, s.End = t.ns(start), t.ns(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	id := len(t.spans)
	t.spans[id-1].ID = id
	return id
}

// commit snapshots the wait counters at round r's commit.
func (t *tracer) commit(r int) {
	t.mu.Lock()
	t.waits[r] = [2]int64{t.clientWriteWait.Load(), t.serverReadWait.Load()}
	t.mu.Unlock()
}

// train wraps a client's train function in a span.
func (t *tracer) train(actor string, f func(int, *model.StateDict) (*model.StateDict, int, error)) func(int, *model.StateDict) (*model.StateDict, int, error) {
	return func(r int, g *model.StateDict) (*model.StateDict, int, error) {
		start := time.Now()
		u, n, err := f(r, g)
		t.add(span{Round: r, Actor: actor, Name: "client.train"}, start, time.Now())
		return u, n, err
	}
}

// tracedConn adds the time spent blocked in Write (write) or Read
// (!write) to wait.
type tracedConn struct {
	net.Conn
	wait  *atomic.Int64
	write bool
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.write {
		return c.Conn.Write(p)
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.wait.Add(time.Since(start).Nanoseconds())
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.write {
		return c.Conn.Read(p)
	}
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.wait.Add(time.Since(start).Nanoseconds())
	return n, err
}

// tracedListener times Read on every accepted connection.
type tracedListener struct {
	net.Listener
	wait *atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, wait: l.wait}, nil
}

// union returns the length of the union of [start, end) intervals
// clipped to [lo, hi).
func union(iv [][2]int64, lo, hi int64) int64 {
	s := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			s = append(s, [2]int64{a, b})
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, curA, curB int64
	for i, x := range s {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}
