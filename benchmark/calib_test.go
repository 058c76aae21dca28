package main

import (
	"math"
	"testing"
	"time"
)

func TestSlowdownPerSlice(t *testing.T) {
	// Second 0 runs at reference speed, second 1 twice as slow, second 2
	// has too few bursts and takes the whole window's median.
	var bursts []burst
	for i := 0; i < 10; i++ {
		bursts = append(bursts, burst{at: time.Duration(i) * 100 * time.Millisecond, took: refBurst})
		bursts = append(bursts, burst{at: time.Second + time.Duration(i)*100*time.Millisecond, took: 2 * refBurst})
	}
	bursts = append(bursts, burst{at: 2*time.Second + time.Millisecond, took: 9 * refBurst})
	s := newSlowdown(bursts, 2500*time.Millisecond)
	if got := s.at(500 * time.Millisecond); got != 1 {
		t.Errorf("slice 0 factor %v, want 1", got)
	}
	if got := s.at(1500 * time.Millisecond); got != 2 {
		t.Errorf("slice 1 factor %v, want 2", got)
	}
	if got := s.at(2200 * time.Millisecond); got != s.whole {
		t.Errorf("a slice with %d burst must take the window's factor %v, got %v", 1, s.whole, got)
	}
	if got := s.max(); got != 2 {
		t.Errorf("max factor %v, want 2", got)
	}
	// One reference second in slice 0 plus half a reference second in
	// slice 1 (one wall second at half speed).
	ref := s.reference(0, 2*time.Second)
	if math.Abs(ref.Seconds()-1.5) > 1e-9 {
		t.Errorf("reference(0, 2s) = %v, want 1.5s", ref)
	}
	if ref := s.reference(500*time.Millisecond, 1500*time.Millisecond); math.Abs(ref.Seconds()-0.75) > 1e-9 {
		t.Errorf("reference(0.5s, 1.5s) = %v, want 0.75s", ref)
	}
}

func TestSlowdownWithoutBurstsIsNeutral(t *testing.T) {
	s := newSlowdown(nil, 3*time.Second)
	if s.whole != 1 || s.at(time.Second) != 1 || s.reference(0, 3*time.Second) != 3*time.Second {
		t.Errorf("no bursts must leave the clock alone: %+v", s)
	}
}

func TestToReferenceClockScalesEveryTime(t *testing.T) {
	tr := &responseTrace{QueueWaitMS: 1, SolveMS: 2, TotalMS: 4}
	w := &window{
		phase: &phase{elapsed: 2 * time.Second, samples: []sample{
			{start: 100 * time.Millisecond, ms: 10},
			{start: 1100 * time.Millisecond, ms: 10, trace: tr},
		}},
		slow:       &slowdown{factor: []float64{1, 2}, whole: 2},
		loadgenCPU: 1,
	}
	w.toReferenceClock([]cpuSample{{0, 10}, {time.Second, 11}, {2 * time.Second, 13}})
	if w.samples[0].ms != 10 || w.samples[1].ms != 5 {
		t.Errorf("latencies %v and %v, want 10 and 5", w.samples[0].ms, w.samples[1].ms)
	}
	if tr.TotalMS != 2 || tr.SolveMS != 1 || tr.QueueWaitMS != 0.5 {
		t.Errorf("trace not scaled: %+v", tr)
	}
	if w.refElapsed != 1500*time.Millisecond {
		t.Errorf("reference elapsed %v, want 1.5s", w.refElapsed)
	}
	if w.serverCPU != 2 { // 1 s at factor 1 plus 2 s at factor 2
		t.Errorf("server CPU %v, want 2", w.serverCPU)
	}
	if w.loadgenCPU != 0.5 {
		t.Errorf("loadgen CPU %v, want 0.5", w.loadgenCPU)
	}
	if w.raw.p50 != 10 || w.raw.throughput != 1 || w.raw.cpuMSPerReq != 1500 {
		t.Errorf("raw numbers must be kept as the wall clock saw them: %+v", w.raw)
	}
}
