package main

import "sort"

// rl.train_*: training the six-iteration fixture (done once while the
// inputs are built): the whole run and the median iteration.
func init() {
	register("rl_train", func(r *recorder) error {
		iters := make([]float64, len(r.in.trainIter))
		for i, d := range r.in.trainIter {
			iters[i] = ms(d)
		}
		sort.Float64s(iters)
		r.metric("rl.train_iter_ms", iters[len(iters)/2])
		r.metric("rl.train_s", r.in.trainAll.Seconds())
		return nil
	})
}
