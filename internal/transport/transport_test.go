package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewOrchestrated(OrchestratedConfig{Rounds: 0}); err == nil {
		t.Fatal("expected rounds error")
	}
}

// TestEndToEndFederation runs a real 2-client federation over TCP
// loopback with the FedSZ codec and verifies the model improves.
func TestEndToEndFederation(t *testing.T) {
	spec := dataset.FashionMNIST()
	full := spec.Generate(360, 3)
	trainSet, testSet := full.TrainTest(0.75, 4)
	shards := trainSet.Split(2)

	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewOrchestrated(OrchestratedConfig{MinClients: 2, Rounds: 3, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	initial := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1).StateDict()

	var wg sync.WaitGroup
	clientErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			net_ := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1)
			data := shards[i]
			clientErrs[i] = RunClient(conn, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				if err := net_.LoadStateDict(global); err != nil {
					return nil, 0, err
				}
				data.Shuffle(int64(round))
				for lo := 0; lo+20 <= data.N; lo += 20 {
					x, y := data.Batch(lo, lo+20)
					net_.TrainBatch(x, y, 0.01, 0.9)
				}
				return net_.StateDict(), data.N, nil
			})
		}(i)
	}

	final, err := srv.Serve(ln, initial)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}

	eval := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1)
	if err := eval.LoadStateDict(final); err != nil {
		t.Fatal(err)
	}
	x, y := testSet.Batch(0, testSet.N)
	acc := eval.Accuracy(x, y)
	if acc <= testSet.Chance()*1.5 {
		t.Fatalf("federated accuracy %.3f did not beat chance %.3f", acc, testSet.Chance())
	}
}

// TestProtocolViolation ensures the server closes a connection that
// skips the join handshake and never registers it.
func TestProtocolViolation(t *testing.T) {
	var rounds atomic.Int64
	srv, err := NewOrchestrated(OrchestratedConfig{
		Rounds:  1,
		OnRound: func(int, *model.StateDict, orchestrator.RoundStats) { rounds.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ln, nn.MobileNetV2Mini(48, 4, 7).StateDict())
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append([]byte{byte(MsgUpdate)}, "bogus"...)); err != nil {
		t.Fatal(err)
	}
	// The server answers the bogus opener by closing the connection.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server kept the connection open (read %d bytes)", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the connection")
	}
	if m := srv.eng.members(); len(m) != 0 {
		t.Fatalf("violating connection registered as %v", m)
	}
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if n := rounds.Load(); n != 0 {
		t.Fatalf("server ran %d rounds with no joined client", n)
	}
}

// TestRateLimitedFederation runs one round through a bandwidth-capped
// connection, verifying the netsim limiter composes with the protocol.
func TestRateLimitedFederation(t *testing.T) {
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients:   1,
		Rounds:       1,
		BandwidthBps: 200e6, // 200 Mbps: fast enough to keep the test quick
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	initial := nn.MobileNetV2Mini(64, 4, 1).StateDict()
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			return global, 10, nil // echo the model back
		})
	}()
	final, err := srv.Serve(ln, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if final.Len() != initial.Len() {
		t.Fatal("echo federation lost entries")
	}
}
