package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fedsz/internal/obs"
)

// TestObsCountersOnDecodePath: the per-family compress/decompress
// counters must advance when frames are encoded and decoded.
func TestObsCountersOnDecodePath(t *testing.T) {
	sd := streamStateDict(t, 77)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	encIn0 := obs.Default.Value("fedsz_core_compress_in_bytes_total", LossySZ2)
	decOut0 := obs.Default.Value("fedsz_core_decompress_out_bytes_total", LossySZ2)
	frames0 := obs.Default.Value("fedsz_core_frames_decoded_total")

	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(frame); err != nil {
		t.Fatal(err)
	}

	if got := obs.Default.Value("fedsz_core_compress_in_bytes_total", LossySZ2); got <= encIn0 {
		t.Errorf("compress in-bytes counter did not advance: %v -> %v", encIn0, got)
	}
	if got := obs.Default.Value("fedsz_core_decompress_out_bytes_total", LossySZ2); got <= decOut0 {
		t.Errorf("decompress out-bytes counter did not advance: %v -> %v", decOut0, got)
	}
	if got := obs.Default.Value("fedsz_core_frames_decoded_total"); got != frames0+1 {
		t.Errorf("frames decoded counter = %v, want %v", got, frames0+1)
	}
}

// TestDecodeAllocsUnchangedByObs is the allocation-regression gate on
// the streaming decode fast path: with instrumentation live (the
// default), no allocation may come from the obs instruments or from
// core's hooks into them — the instruments are atomic adds against
// pre-resolved counters, never map or string churn. Every allocation
// is profiled and attributed by stack, so the check does not depend on
// sync.Pool hits, which the race detector drops at random.
func TestDecodeAllocsUnchangedByObs(t *testing.T) {
	sd := streamStateDict(t, 99)
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := DecompressParallel(frame, 1); err != nil {
			t.Fatal(err)
		}
	}
	wasDisabled := obs.IsDisabled()
	defer obs.SetDisabled(wasDisabled)
	obs.SetDisabled(false)
	decode() // resolve the family's instruments once

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := obsAllocStacks()
	for i := 0; i < 20; i++ {
		decode()
	}
	for stack, n := range obsAllocStacks() {
		if d := n - before[stack]; d > 0 {
			t.Errorf("instrumentation allocated %d objects over 20 decodes at:\n%s", d, stack)
		}
	}
}

// obsAllocStacks returns the memory profile's cumulative allocation
// count for every stack that passes through package obs or through
// core's instrument hooks (obs.go).
func obsAllocStacks() map[string]int64 {
	// The profile publishes allocations once a GC cycle has swept them.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]int64)
	for _, r := range recs {
		var b strings.Builder
		viaObs := false
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "fedsz/internal/obs.") || strings.HasSuffix(f.File, "/internal/core/obs.go") {
				viaObs = true
			}
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		if viaObs {
			out[b.String()] += r.AllocObjects
		}
	}
	return out
}

// TestObsRegistryServesCoreFamilies: the registry snapshot includes
// the core families after traffic, and the Prometheus rendering
// carries them (what the /metrics smoke test scrapes).
func TestObsRegistryServesCoreFamilies(t *testing.T) {
	sd := streamStateDict(t, 123)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(frame); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`fedsz_core_compress_ns_total{family="sz2"}`,
		`fedsz_core_ratio_count{family="sz2",dir="decode"}`,
		"fedsz_core_frames_decoded_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("Prometheus output missing %q\n%s", want, text[:min(len(text), 2000)])
		}
	}
}
