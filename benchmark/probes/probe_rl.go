package main

import "respect/internal/rl"

// rl.schedule_*: the whole RL inference path (embed, decode, rho mapping,
// post-processing): greedy on ResNet50, which is one rl_infer request,
// and 16 sampled decodes on a 50-node synthetic graph.
func init() {
	register("rl", func(r *recorder) error {
		var err error
		r.metric("rl.schedule_ms", ms(r.timeOp("rl.schedule", func() {
			_, err = rl.Schedule(r.in.model, r.in.ecfg, r.in.resnet50, 4)
		})))
		if err != nil {
			return err
		}
		r.metric("rl.schedule_sampled16_ms", ms(r.timeOp("rl.schedule_sampled16", func() {
			_, err = rl.ScheduleSampled(r.in.model, r.in.ecfg, r.in.synth50[0], 4, 16, 1)
		})))
		return err
	})
}
