package main

import (
	"time"

	"respect/internal/speculate"
)

// speculate.*: the popularity tap every request pays with -speculate on,
// and generating the near-future variants of a hot instance.
func init() {
	register("speculate", func(r *recorder) error {
		tracker := speculate.NewTracker(time.Minute, 1024)
		g := r.in.resnet50
		g.Fingerprint() // memoised; the server has it before the tap runs
		r.metric("speculate.observe_ns", float64(r.timeOp("speculate.observe", func() { tracker.Observe(g, 4) })))
		r.metric("speculate.mutations_us", us(r.timeOp("speculate.mutations", func() { speculate.Mutations(g, 4, 64) })))
		return nil
	})
}
