package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"respect"
	"respect/internal/embed"
	"respect/internal/ptrnet"
	"respect/internal/rl"
)

// inputs are the graphs and the trained agent the probes share. They are
// the workloads' own inputs: ResNet50 stands for the zoo, synth30 is the
// head of the synth_miss population and synth50 is of the kind rl_infer sends.
type inputs struct {
	resnet50    *respect.Graph
	resnet50Doc []byte // its WriteJSON document
	heurSched   respect.Schedule
	synth30     []*respect.Graph
	synth50     []*respect.Graph

	// The RL fixture, trained here with the configuration of the one
	// rl_infer serves with (the harness fixes its seed, this one takes
	// -seed; the times probed do not depend on the weights).
	model     *ptrnet.Model
	ecfg      embed.Config
	trainIter []time.Duration
	trainAll  time.Duration
}

// These mirror the harness's synth_miss population (pool.go).
const (
	synthMissDegree   = 6
	synthMissBaseSeed = 20230709
)

func newInputs(r *recorder, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	if in.resnet50, err = respect.LoadModel("ResNet50"); err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := in.resnet50.WriteJSON(&doc); err != nil {
		return nil, err
	}
	in.resnet50Doc = doc.Bytes()
	if in.heurSched, err = respect.ScheduleWith(context.Background(), "heur", in.resnet50, 4); err != nil {
		return nil, err
	}
	if in.synth30, err = respect.SampleSyntheticGraphs(256, 30, synthMissDegree, synthMissBaseSeed); err != nil {
		return nil, err
	}
	if in.synth50, err = respect.SampleSyntheticGraphs(8, 50, 4, seed); err != nil {
		return nil, err
	}

	start := time.Now()
	tr, err := rl.NewTrainer(rl.Config{Iterations: 6, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("rl fixture: %w", err)
	}
	root := r.addSpan(0, "rl.train", start, start, 1)
	last := time.Now()
	err = tr.Train(func(rl.IterStats) {
		now := time.Now()
		r.addSpan(root, "rl.train_iter", last, now, 1)
		in.trainIter = append(in.trainIter, now.Sub(last))
		last = now
	})
	if err != nil {
		return nil, fmt.Errorf("rl fixture: %w", err)
	}
	in.trainAll = time.Since(start)
	r.spans[root-1].EndMS = r.sinceMS(time.Now())
	in.model, in.ecfg = tr.Model, tr.EmbedCfg
	return in, nil
}
