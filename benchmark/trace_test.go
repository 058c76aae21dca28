package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "solve", StartMS: 0, EndMS: 10},
		{ID: 2, Parent: 1, Name: "a", StartMS: 1, EndMS: 6},
		{ID: 3, Parent: 1, Name: "b", StartMS: 4, EndMS: 8}, // overlaps a
	}
	self := selfTimes(spans)
	if self["solve"] != 3 { // 10 minus the union [1,8]
		t.Errorf("solve self time %v, want 3", self["solve"])
	}
	if self["a"] != 5 || self["b"] != 4 {
		t.Errorf("leaf self times %v and %v, want 5 and 4", self["a"], self["b"])
	}
}

func TestRequestSpansSumToTotal(t *testing.T) {
	tr := &responseTrace{QueueWaitMS: 0.5, SolveMS: 3, TotalMS: 4}
	tr.Backends = append(tr.Backends, struct {
		Backend  string  `json:"backend"`
		StartMS  float64 `json:"start_ms"`
		FinishMS float64 `json:"finish_ms"`
		Outcome  string  `json:"outcome"`
	}{"exact", 0.1, 2.9, "winner"})
	next := 0
	spans := requestSpans(&next, 1, sample{start: 10 * time.Millisecond, ms: 5, trace: tr})
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	total := byName["serve.total"]
	if total.StartMS != 10.5 || total.EndMS != 14.5 {
		t.Errorf("serve.total spans [%v,%v], want the client span's middle [10.5,14.5]", total.StartMS, total.EndMS)
	}
	parts := 0.0
	for _, name := range []string{"serve.pre_solve", "serve.queue_wait", "solver.solve"} {
		s := byName[name]
		if s.Parent != total.ID {
			t.Errorf("%s is not a child of serve.total", name)
		}
		parts += s.EndMS - s.StartMS
	}
	if math.Abs(parts-tr.TotalMS) > 1e-9 {
		t.Errorf("parts sum to %v, want total %v", parts, tr.TotalMS)
	}
	if b := byName["solver.backend.exact"]; b.Parent != byName["solver.solve"].ID {
		t.Error("a raced backend must be a child of solver.solve")
	}
}
