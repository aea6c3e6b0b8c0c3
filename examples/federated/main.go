// Federated: run FedAvg over four clients on a synthetic CIFAR-10-like
// task, once with uncompressed updates and once with FedSZ, and compare
// accuracy and communication cost per round — the paper's central
// experiment in miniature (Fig. 4 + Fig. 7).
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"
	"time"

	"fedsz"
)

func main() {
	link := fedsz.Link{BandwidthBps: fedsz.Mbps(10)} // constrained WAN

	base := fedsz.SimConfig{
		Clients:          4,
		Rounds:           8,
		SamplesPerClient: 100,
		Link:             link,
		Seed:             42,
	}

	fmt.Println("running uncompressed baseline...")
	plainCfg := base
	plainCfg.Codec = fedsz.PlainCodec{}
	plain, err := fedsz.RunOrchestratedSim(fedsz.OrchSimConfig{SimConfig: plainCfg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running FedSZ (SZ2 @ REL 1e-2)...")
	codec, err := fedsz.NewCodec(fedsz.WithRelBound(1e-2))
	if err != nil {
		log.Fatal(err)
	}
	fszCfg := base
	fszCfg.Codec = codec
	fsz, err := fedsz.RunOrchestratedSim(fedsz.OrchSimConfig{SimConfig: fszCfg})
	if err != nil {
		log.Fatal(err)
	}

	// Time on the wire: every round's uploads, one after another over
	// the shared link (the paper's serial server ingest).
	var plainWire, fszWire time.Duration
	fmt.Println("\nround  uncomp-acc  fedsz-acc  uncomp-comm  fedsz-comm  uplink-ratio")
	for i := range plain.Rounds {
		p, f := plain.Rounds[i], fsz.Rounds[i]
		pw, fw := link.TransferTime(p.BytesUplink), link.TransferTime(f.BytesUplink)
		plainWire += pw
		fszWire += fw
		fmt.Printf("%5d  %10.3f  %9.3f  %11s  %10s  %11.2fx\n",
			i, p.TestAccuracy, f.TestAccuracy, pw.Round(1e7), fw.Round(1e7),
			float64(p.BytesUplink)/float64(f.BytesUplink))
	}
	fmt.Printf("\ntotal simulated comm: uncompressed %v vs FedSZ %v (%.1fx less time on the wire)\n",
		plainWire.Round(1e7), fszWire.Round(1e7), float64(plainWire)/float64(fszWire))
	fmt.Printf("final accuracy: uncompressed %.3f, FedSZ %.3f\n",
		plain.FinalAccuracy(), fsz.FinalAccuracy())

	// The streaming uplink (Encoder / Codec.EncodeTo, what the TCP
	// transport uses) goes further: each tensor's frame section hits
	// the wire while the next is still compressing, so the client's
	// upload takes max(tC, tT) instead of tC + tT. Quantify Eqn. 1
	// under both transfer models for one update on this link.
	sd := fedsz.BuildStateDict(fedsz.MobileNetV2(4), 42)
	_, stats, err := fedsz.Compress(sd, fedsz.WithRelBound(1e-2))
	if err != nil {
		log.Fatal(err)
	}
	d := fedsz.Decision{
		CompressTime:    stats.CompressTime,
		OriginalBytes:   stats.OriginalBytes,
		CompressedBytes: stats.CompressedBytes,
		BandwidthBps:    link.BandwidthBps,
	}
	sections := stats.NumLossyTensors + 1 // one frame section per tensor + metadata
	fmt.Printf("\nper-update upload @ 10 Mbps: whole-buffer %v, pipelined (%d sections) %v, raw %v\n",
		d.CompressedPathTime().Round(1e6), sections,
		d.PipelinedTime(sections).Round(1e6),
		d.UncompressedPathTime().Round(1e6))
}
