package main

import "respect/internal/embed"

// ptrnet.*: the pointer network's decode of a 50-node synthetic graph,
// greedy and with beam width 8.
func init() {
	register("ptrnet", func(r *recorder) error {
		emb := embed.Graph(r.in.synth50[0], r.in.ecfg)
		infer := func() { r.in.model.Infer(emb) }
		r.metric("ptrnet.infer_ms", ms(r.timeOp("ptrnet.infer", infer)))
		r.metric("ptrnet.infer_allocs_per_op", allocsPerOp(10, infer))
		r.metric("ptrnet.infer_beam8_ms", ms(r.timeOp("ptrnet.infer_beam8", func() { r.in.model.InferBeam(emb, 8) })))
		return nil
	})
}
