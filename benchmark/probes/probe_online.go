package main

import (
	"time"

	"respect/internal/online"
)

// online.buffer_add_ns: the replay-buffer tap every solved request pays
// with -online on.
func init() {
	register("online", func(r *recorder) error {
		buf := online.NewBuffer(4096, []string{"interactive"})
		s := online.Sample{
			Class: "interactive", Graph: r.in.resnet50, Fingerprint: r.in.resnet50.Fingerprint(),
			Stages: 4, Backend: "heur", Schedule: r.in.heurSched, Latency: time.Millisecond,
		}
		r.metric("online.buffer_add_ns", float64(r.timeOp("online.buffer_add", func() { buf.Add(s) })))
		return nil
	})
}
