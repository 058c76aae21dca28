// Command respect-train trains a RESPECT scheduling agent on synthetic
// DAGs (the paper's data-independent setup) and writes the weights to a
// file for respect-schedule and respect-bench to reuse.
//
// Example:
//
//	respect-train -iters 500 -hidden 64 -out respect.gob
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"respect/internal/rl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("respect-train: ")

	var (
		out    = flag.String("out", "respect.gob", "output weights file")
		iters  = flag.Int("iters", 300, "training iterations")
		batch  = flag.Int("batch", 16, "graphs per iteration")
		hidden = flag.Int("hidden", 64, "LSTM/attention width (paper: 256)")
		nodes  = flag.Int("nodes", 30, "synthetic graph size |V| (paper: 30)")
		stages = flag.Int("stages", 4, "pipeline stages during training")
		lr     = flag.Float64("lr", 2e-3, "Adam learning rate")
		seed   = flag.Int64("seed", 1, "random seed")
		quiet  = flag.Bool("q", false, "suppress per-iteration progress")
	)
	flag.Parse()

	tr, err := rl.NewTrainer(rl.Config{
		Hidden: *hidden, NumNodes: *nodes, Stages: *stages,
		Iterations: *iters, BatchSize: *batch, LR: *lr, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initial greedy reward (held-out): %.4f\n", tr.EvalGreedy(tr.Model))
	err = tr.Train(func(st rl.IterStats) {
		if !*quiet && (st.Iter%10 == 0 || st.Iter == *iters-1) {
			fmt.Printf("iter %4d  reward %.4f  baseline %.4f  |grad| %.3f  entropy %.3f  (%v)\n",
				st.Iter, st.MeanReward, st.MeanBase, st.GradNorm, st.MeanEntropy, st.Elapsed)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final greedy reward (held-out): %.4f\n", tr.EvalGreedy(tr.Model))

	if err := tr.Model.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(*out)
	fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
}
