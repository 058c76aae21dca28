package main

import (
	"respect"
	"respect/internal/sched"
)

// sched.*: the schedule primitives every backend and the portfolio call:
// cost evaluation, validation, the deployment repair, and the optimal DP
// segmentation of an emitted order (the RL path's rho mapping).
func init() {
	register("sched", func(r *recorder) error {
		g, s := r.in.resnet50, r.in.heurSched
		r.metric("sched.evaluate_us", us(r.timeOp("sched.evaluate", func() { s.Evaluate(g) })))
		var err error
		r.metric("sched.validate_us", us(r.timeOp("sched.validate", func() { err = s.Validate(g) })))
		if err != nil {
			return err
		}
		r.metric("sched.post_process_us", us(r.timeOp("sched.post_process", func() { respect.PostProcess(g, s) })))
		order := g.Topo()
		r.metric("sched.seq_to_schedule_dp_us", us(r.timeOp("sched.seq_to_schedule_dp", func() {
			_, err = sched.SequenceToScheduleDP(g, order, 4)
		})))
		return err
	})
}
