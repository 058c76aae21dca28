package main

import "respect"

// synth.sample_us: drawing one 30-node training-style DAG.
func init() {
	register("synth", func(r *recorder) error {
		var err error
		seed := int64(0)
		d := r.timeOp("synth.sample", func() {
			seed++
			_, err = respect.SampleSyntheticGraphs(1, 30, synthMissDegree, seed)
		})
		r.metric("synth.sample_us", us(d))
		return err
	})
}
