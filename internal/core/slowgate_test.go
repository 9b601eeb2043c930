package core

import (
	"strings"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/trace/span"
)

// The slow-trace retention gate lives here (it evaluates this server's
// own latency distribution); the retained requests live in the shared
// span.Collector. These tests drive the gate through a real server.

// slowServer returns an instrumented server whose collector keeps
// slowCap slow requests behind a quantile gate with a 1ns floor, so
// every request is "slow" until the quantile warms up.
func slowServer(t *testing.T, quantile float64, slowCap int) (*Server, *span.Collector) {
	t.Helper()
	s := newServer(t, FIDRFull)
	s.EnableObservability(nil)
	col := span.NewCollector(0, slowCap, 0)
	col.SetSlowGate(quantile, time.Nanosecond)
	s.SetSpanCollector(col, 0)
	return s, col
}

func writeChunks(t *testing.T, s *Server, n int) {
	t.Helper()
	sh := blockcomp.NewShaper(0.5)
	for i := 0; i < n; i++ {
		if err := s.Write(uint64(i), sh.Make(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderCapturesSlowRequests(t *testing.T) {
	s, col := slowServer(t, 0.99, 8)
	writeChunks(t, s, 20)
	reg := s.MetricsRegistry()

	slow := col.Slow()
	if len(slow) == 0 {
		t.Fatal("no slow traces retained with a 1ns threshold")
	}
	if len(slow) > 8 {
		t.Fatalf("slow view holds %d requests, capacity 8", len(slow))
	}
	for _, q := range slow {
		if q.Threshold <= 0 {
			t.Fatalf("slow %q has no threshold", q.Op())
		}
		if q.Root.Dur < q.Threshold {
			t.Fatalf("slow %q total %v below threshold %v", q.Op(), q.Root.Dur, q.Threshold)
		}
		if q.Queues == nil {
			t.Fatalf("slow %q has no queue snapshot", q.Op())
		}
	}
	// Queue snapshot keys are occupancy gauges.
	for name := range slow[0].Queues {
		if !strings.Contains(name, "queue") {
			t.Fatalf("queue snapshot contains non-queue gauge %q", name)
		}
	}
	// 20 writes + 1 batch + 1 flush all crossed the 1ns floor; the view
	// kept the newest 8, the counter counted them all.
	if got := reg.Counter("core.slow_traces").Value(); got != 22 {
		t.Fatalf("core.slow_traces = %d, want 22", got)
	}
	if slow[0].Op() != "flush" {
		t.Fatalf("newest slow request is %q, want flush", slow[0].Op())
	}
	if reg.Gauge("core.slow_threshold_ns").Value() <= 0 {
		t.Fatal("core.slow_threshold_ns not published")
	}
	if got := reg.Histogram("core.request_total_ns").Count(); got != 22 {
		t.Fatalf("core.request_total_ns count = %d, want 22", got)
	}
}

func TestFlightRecorderQuantileGate(t *testing.T) {
	s, col := slowServer(t, 0.9, 4)
	// finish completes a synthetic request that began ago in the past.
	finish := func(op string, ago time.Duration) {
		tr := s.obs.begin(op, 0)
		tr.req.Root.Start = time.Now().Add(-ago)
		tr.done()
	}
	// Warm up with uniform fast requests, then one outlier.
	for i := 0; i < slowWarmup+50; i++ {
		finish("write", 100*time.Microsecond)
	}
	if th := time.Duration(s.obs.threshold.Value()); th < 50*time.Microsecond {
		t.Fatalf("warmed threshold %v implausibly low for a 100µs population", th)
	}
	// The warmup population itself filled the slow view (floor
	// threshold), so distinguish by op: an outlier above the quantile
	// must be retained, a fast request must not be.
	finish("outlier", time.Second)
	if got := col.Slow(); len(got) == 0 || got[0].Op() != "outlier" {
		t.Fatal("1s outlier not retained after warmup")
	}
	finish("fast", 0)
	if got := col.Slow(); got[0].Op() != "outlier" {
		t.Fatalf("fast request retained after warmup (newest is %q)", got[0].Op())
	}
	if got := col.Recent(); got[0].Op() != "fast" {
		t.Fatalf("fast request missing from the recent view (newest is %q)", got[0].Op())
	}
}

func TestFlightRecorderDisabledServer(t *testing.T) {
	s := newServer(t, Baseline)
	// No EnableObservability: attaching a collector must be a safe
	// no-op, and nothing may reach it.
	col := span.NewCollector(0, 0, 0)
	s.SetSpanCollector(col, 0)
	writeChunks(t, s, 4)
	if got := col.Recent(); len(got) != 0 {
		t.Fatalf("uninstrumented server published %d requests", len(got))
	}
}

// TestRenderSlowTraces: a real slow request renders with its stages,
// the bar it crossed and the queue gauges snapshotted with it.
func TestRenderSlowTraces(t *testing.T) {
	s, col := slowServer(t, 0.99, 8)
	writeChunks(t, s, 2)
	out := col.RenderSlow()
	for _, want := range []string{"slow request", "threshold", "write", "batch", "nic_buffer=", "compress=",
		"1ns", "queue_depth=", col.Slow()[0].Root.Trace.String(), "4 slow traces"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered slow traces missing %q:\n%s", want, out)
		}
	}
}
