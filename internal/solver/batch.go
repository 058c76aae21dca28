package solver

import (
	"context"
	"sync"
	"time"

	"respect/internal/graph"
	"respect/internal/sched"
)

// BatchResult is one graph's outcome within a batch run. Results are
// returned in input order regardless of worker interleaving.
type BatchResult struct {
	// Index is the graph's position in the input slice.
	Index int
	// Graph is the scheduled graph.
	Graph *graph.Graph
	// Schedule and Cost are set when Err is nil.
	Schedule sched.Schedule
	Cost     sched.Cost
	// Err reports a failed instance (the rest of the batch still runs).
	Err error
	// Elapsed is the instance's solve wall time.
	Elapsed time.Duration
	// CacheHit reports that the schedule came from the engine's memo
	// rather than a fresh solve.
	CacheHit bool
	// Deduped reports that this graph was a within-batch duplicate (same
	// structural fingerprint as an earlier graph) and its schedule was
	// copied from the representative instead of re-solved. Deduped results
	// also report CacheHit.
	Deduped bool
	// Truncated reports the backend ran out of budget and Schedule is an
	// incumbent, not a full-effort result.
	Truncated bool
}

// Batch schedules every graph on numStages stages through engine e with a
// bounded pool of jobs workers (clamped to [1, len(graphs)]). The i-th
// result always corresponds to graphs[i] — deterministic ordering for any
// jobs value. Per-graph failures are recorded in their BatchResult; the
// only call-level error is caller-context cancellation, in which case
// unstarted instances carry ctx's error.
func Batch(ctx context.Context, e *Engine, graphs []*graph.Graph, numStages, jobs int) ([]BatchResult, error) {
	results := make([]BatchResult, len(graphs))
	if len(graphs) == 0 {
		return results, ctx.Err()
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(graphs) {
		jobs = len(graphs)
	}

	// Within-batch fingerprint dedup: replay batches routinely repeat
	// graphs, and hashing is ~10⁴× cheaper than a solve. An engine already
	// promises fingerprint-equal graphs the same result, so copying the
	// representative's cannot change semantics.
	dupOf := map[int]int{} // duplicate index -> representative index
	feedList := make([]int, 0, len(graphs))
	rep := make(map[uint64]int, len(graphs))
	for i, g := range graphs {
		fp := g.Fingerprint()
		if r, ok := rep[fp]; ok {
			dupOf[i] = r
		} else {
			rep[fp] = i
			feedList = append(feedList, i)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				start := time.Now()
				res, hit, err := e.Run(ctx, graphs[i], numStages)
				results[i] = BatchResult{
					Index: i, Graph: graphs[i],
					Schedule: res.Schedule, Cost: res.Cost, Err: err,
					Elapsed: time.Since(start), CacheHit: hit, Truncated: res.Truncated,
				}
			}
		}()
	}

feed:
	for fi, i := range feedList {
		select {
		case work <- i:
		case <-ctx.Done():
			// Workers only touch indices already fed, so the tail from fi on
			// is exclusively ours: mark it cancelled.
			for _, j := range feedList[fi:] {
				results[j] = BatchResult{Index: j, Graph: graphs[j], Err: ctx.Err()}
			}
			break feed
		}
	}
	close(work)
	wg.Wait()

	// Fill duplicates from their representatives. Representatives are
	// always at lower indices than their duplicates, and all are settled
	// once the workers drain. Each fill counts as a cache hit — the
	// dedup is an optimization over querying the cache, not a semantic
	// change, so Stats must not depend on it.
	for j, i := range dupOf {
		src := results[i]
		r := &results[j]
		*r = BatchResult{Index: j, Graph: graphs[j], Err: src.Err, Deduped: true}
		if src.Err == nil {
			r.Schedule = src.Schedule.Clone()
			r.Cost = src.Cost
			r.CacheHit = true
			r.Truncated = src.Truncated
			e.mu.Lock()
			e.hits++
			e.mu.Unlock()
		}
	}
	return results, ctx.Err()
}
