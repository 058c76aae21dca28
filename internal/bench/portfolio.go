package bench

import (
	"context"
	"time"

	"respect/internal/models"
	"respect/internal/solver"
)

// PortfolioRow is one (model, stages) outcome of racing a backend set.
type PortfolioRow struct {
	Model  string
	Stages int
	// Winner names the backend whose schedule won the race.
	Winner  string
	PeakMiB float64
	// Elapsed is the whole race's wall time (= the slowest backend or the
	// budget, whichever ends it).
	Elapsed time.Duration
	// Outcomes is the per-backend telemetry, in backend order.
	Outcomes []solver.Outcome
}

// PortfolioStudy races the named registry backends on each (model, stages)
// instance under perInstance budget, reporting winners and per-backend
// telemetry. RL backends must be registered by the caller beforehand.
func PortfolioStudy(ctx context.Context, names []string, stages []int, backendNames []string, perInstance time.Duration) ([]PortfolioRow, error) {
	if len(names) == 0 {
		names = models.TableINames()
	}
	if len(stages) == 0 {
		stages = Stages
	}
	backends, err := solver.Resolve(backendNames...)
	if err != nil {
		return nil, err
	}
	var rows []PortfolioRow
	for _, name := range names {
		g, err := models.Load(name)
		if err != nil {
			return nil, err
		}
		for _, ns := range stages {
			ictx, cancel := context.WithTimeout(ctx, perInstance)
			start := time.Now()
			res, err := solver.Portfolio(ictx, backends, g, ns)
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				return nil, err
			}
			rows = append(rows, PortfolioRow{
				Model: name, Stages: ns,
				Winner:   res.Backend,
				PeakMiB:  float64(res.Cost.PeakParamBytes) / (1 << 20),
				Elapsed:  elapsed,
				Outcomes: res.Outcomes,
			})
		}
	}
	return rows, nil
}
