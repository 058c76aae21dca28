package main

import "respect"

// tpu.simulate_us: the Coral pipeline cost model on ResNet50; the
// benchmark itself calls it once per distinct key for sim_inference_ips.
func init() {
	register("tpu", func(r *recorder) error {
		hw := respect.CoralHW()
		var err error
		r.metric("tpu.simulate_us", us(r.timeOp("tpu.simulate", func() {
			_, err = respect.Simulate(r.in.resnet50, r.in.heurSched, hw)
		})))
		return err
	})
}
