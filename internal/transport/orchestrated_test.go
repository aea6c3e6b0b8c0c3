package transport

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

// TestOrchestratedClientDiesMidStream is the satellite bugfix test:
// one client writes half an update frame and drops its connection
// mid-stream; the legacy server aborted the whole run, the
// orchestrated server must withdraw the partial contribution, drop
// the client, and commit every round from the survivors.
func TestOrchestratedClientDiesMidStream(t *testing.T) {
	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		Codec:      codec,
		MinClients: 3,
		Rounds:     rounds,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(4)
	defer ln.Close()
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	var wg sync.WaitGroup
	// Two healthy echo clients.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			if err := RunClient(conn, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				return global, 10 + i, nil
			}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	// One client that sends a partial update frame in round 0 and dies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := ln.Dial()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoin, nil); err != nil {
			t.Errorf("dying client join: %v", err)
			return
		}
		if tp, err := readMsgSkippingTrace(cs); err != nil || tp != MsgGlobalModel {
			t.Errorf("dying client: expected global model, got %v (%v)", tp, err)
			return
		}
		if _, err := core.UnmarshalStateDictFrom(cs.r); err != nil {
			t.Errorf("dying client: read global: %v", err)
			return
		}
		// Encode a real update, then send only the first half of it.
		buf, _, err := codec.Encode(initial)
		if err != nil {
			t.Errorf("dying client encode: %v", err)
			return
		}
		err = cs.writeMsg(MsgUpdate, func(w io.Writer) error {
			if _, err := w.Write([]byte{20}); err != nil { // sample count uvarint
				return err
			}
			_, err := w.Write(buf[:len(buf)/2])
			return err
		})
		if err != nil {
			return // pipe may already be closing; the server side is what matters
		}
		_ = conn.Close()
	}()

	final, err := srv.Serve(ln, initial)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if final.Len() != initial.Len() {
		t.Fatalf("final model has %d entries, want %d", final.Len(), initial.Len())
	}
	if len(stats) != rounds {
		t.Fatalf("committed %d rounds, want %d", len(stats), rounds)
	}
	// Round 0 saw three participants, committed two, dropped the dier.
	if stats[0].Sampled != 3 || stats[0].Committed != 2 || stats[0].Dropped != 1 {
		t.Fatalf("round 0 stats %+v, want sampled 3 committed 2 dropped 1", stats[0])
	}
	// Later rounds only ever sample the two survivors.
	for _, st := range stats[1:] {
		if st.Sampled != 2 || st.Committed != 2 {
			t.Fatalf("survivor round stats %+v", st)
		}
	}
}

// TestOrchestratedClientDiesAfterUpdateFrame kills a client in the
// gap between its complete update frame and the plan-prior trailer:
// its weighted entries are already folded when readPrior fails, so the
// collection path must withdraw the contribution — leaking it would
// leave the sums carrying weight the total never sees, and the commit
// would divide poisoned sums by a too-small total.
func TestOrchestratedClientDiesAfterUpdateFrame(t *testing.T) {
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()
	poison := nn.MobileNetV2Mini(48, 4, 9).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 3,
		Rounds:     1,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(4)
	defer ln.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			if err := RunClient(conn, nil, func(int, *model.StateDict) (*model.StateDict, int, error) {
				return upd, 10, nil
			}); err != nil {
				t.Errorf("client: %v", err)
			}
		}()
	}
	// The dier sends its FULL update frame — heavily weighted poison —
	// then slams the connection before the prior trailer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := ln.Dial()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoin, nil); err != nil {
			t.Errorf("dier join: %v", err)
			return
		}
		if tp, err := readMsgSkippingTrace(cs); err != nil || tp != MsgGlobalModel {
			t.Errorf("dier: expected global model, got %v (%v)", tp, err)
			return
		}
		if _, err := core.UnmarshalStateDictFrom(cs.r); err != nil {
			t.Errorf("dier: read global: %v", err)
			return
		}
		buf, _, err := fl.PlainCodec{}.Encode(poison)
		if err != nil {
			t.Errorf("dier encode: %v", err)
			return
		}
		_ = cs.writeMsg(MsgUpdate, func(w io.Writer) error {
			if _, err := w.Write([]byte{100}); err != nil { // sample count uvarint
				return err
			}
			_, err := w.Write(buf)
			return err
		})
		_ = conn.Close()
	}()

	final, err := srv.Serve(ln, initial)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()

	if len(stats) != 1 {
		t.Fatalf("committed %d rounds, want 1", len(stats))
	}
	if st := stats[0]; st.Sampled != 3 || st.Committed != 2 || st.Dropped != 1 {
		t.Fatalf("stats %+v, want sampled 3 committed 2 dropped 1", st)
	}
	// The survivors' identical updates average to exactly upd; any
	// residue of the dier's 100-weighted poison frame would show.
	for _, want := range upd.Entries() {
		if want.DType != model.Float32 {
			continue
		}
		got, ok := final.Get(want.Name)
		if !ok {
			t.Fatalf("final model missing %q", want.Name)
		}
		gd, wd := got.Tensor.Data(), want.Tensor.Data()
		for j := range wd {
			if gd[j] != wd[j] {
				t.Fatalf("entry %q element %d: %v != %v (dier's folded update leaked into the sums?)",
					want.Name, j, gd[j], wd[j])
			}
		}
	}
}

// TestOrchestratedStragglerDeadline verifies the wall-clock straggler
// cut: a client that stalls mid-upload past the round deadline is
// dropped and the round commits with the on-time updates.
func TestOrchestratedStragglerDeadline(t *testing.T) {
	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients:    3,
		Rounds:        1,
		RoundDeadline: 300 * time.Millisecond,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(4)
	defer ln.Close()
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			_ = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				return global, 10, nil
			})
		}(i)
	}
	// The straggler joins, receives the broadcast, then stalls forever.
	stalled := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := ln.Dial()
		defer conn.Close()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoin, nil); err != nil {
			return
		}
		if _, err := readMsgSkippingTrace(cs); err != nil {
			return
		}
		if _, err := core.UnmarshalStateDictFrom(cs.r); err != nil {
			return
		}
		<-stalled // never sends its update; the server must cut it
	}()

	done := make(chan struct{})
	var final *model.StateDict
	var serveErr error
	go func() {
		final, serveErr = srv.Serve(ln, initial)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not cut the straggler")
	}
	close(stalled)
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	if final == nil || len(stats) != 1 {
		t.Fatalf("no committed round (stats %v)", stats)
	}
	if stats[0].Committed != 2 || stats[0].Dropped != 1 {
		t.Fatalf("stats %+v, want committed 2 dropped 1", stats[0])
	}
}

// joinWatcher is a slog.Handler that calls itself on every member-join
// record and discards everything else.
type joinWatcher func()

func (joinWatcher) Enabled(context.Context, slog.Level) bool { return true }

func (w joinWatcher) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "member joined" {
		w()
	}
	return nil
}

func (w joinWatcher) WithAttrs([]slog.Attr) slog.Handler { return w }
func (w joinWatcher) WithGroup(string) slog.Handler      { return w }

// TestOrchestratedDynamicJoin starts the server with one client and
// lets a second join mid-training: later rounds must sample both.
func TestOrchestratedDynamicJoin(t *testing.T) {
	var mu sync.Mutex
	var sampled []int
	release := make(chan struct{})
	// joined closes once the server has registered the second client
	// (the join record is logged after coord.Join); the first client
	// holds its round-2 update until then, so round 3's sample
	// deterministically sees both however fast the rounds run.
	joined := make(chan struct{})
	var joins atomic.Int64
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 1,
		Rounds:     6,
		Logger: slog.New(joinWatcher(func() {
			if joins.Add(1) == 2 {
				close(joined)
			}
		})),
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			mu.Lock()
			sampled = append(sampled, st.Committed)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(2)
	defer ln.Close()
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	var rounds0 atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := ln.Dial()
		defer conn.Close()
		_ = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			if rounds0.Add(1) == 2 {
				close(release) // let the second client join after round 1
				<-joined       // and don't finish round 2 until it has
			}
			return global, 10, nil
		})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release
		conn := ln.Dial()
		defer conn.Close()
		_ = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			return global, 20, nil
		})
	}()

	final, err := srv.Serve(ln, initial)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if final == nil {
		t.Fatal("nil final model")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sampled) != 6 {
		t.Fatalf("rounds = %d, want 6", len(sampled))
	}
	if sampled[0] != 1 {
		t.Fatalf("first round committed %d, want 1", sampled[0])
	}
	if last := sampled[len(sampled)-1]; last != 2 {
		t.Fatalf("last round committed %d, want 2 after dynamic join", last)
	}
}
