package main

import (
	"context"
	"sort"
	"time"

	"respect"
)

// exact.*: branch and bound on the head of the synth_miss population (each
// graph solved once under the workload's 250 ms budget, so p95 is the
// tail that sets synth_miss's latency_p95_ms) and on ResNet50.
func init() {
	register("exact", func(r *recorder) error {
		var solves []float64
		for i, g := range r.in.synth30[:128] {
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			start := time.Now()
			respect.ScheduleExactCtx(ctx, g, 4+i%3)
			end := time.Now()
			cancel()
			r.addSpan(r.parent, "exact.synth30", start, end, 1)
			solves = append(solves, ms(end.Sub(start)))
		}
		sort.Float64s(solves)
		r.metric("exact.synth30_ms_p50", solves[len(solves)/2])
		r.metric("exact.synth30_ms_p95", solves[len(solves)*95/100])

		zoo := func() { respect.ScheduleExactCtx(context.Background(), r.in.resnet50, 4) }
		r.metric("exact.zoo_ms", ms(r.timeOp("exact.zoo", zoo)))
		r.metric("exact.allocs_per_op", allocsPerOp(10, zoo))
		return nil
	})
}
