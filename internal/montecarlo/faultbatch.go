package montecarlo

import (
	"errors"
	"fmt"

	"buanalysis/internal/faultsim"
	"buanalysis/internal/par"
	"buanalysis/internal/stats"
)

// Metric reduces a fault-simulation report to one number to summarize
// across batches.
type Metric func(*faultsim.Report) float64

// OrphanFraction is the share of mined blocks the consensus chain
// abandoned — the network-level damage a fault schedule (or the
// paper's EB-mismatch attack) inflicts.
func OrphanFraction(rep *faultsim.Report) float64 {
	total := rep.MainChain + rep.Orphans
	if total == 0 {
		return 0
	}
	return float64(rep.Orphans) / float64(total)
}

// RejectionRate is validity rejections per mined block: how often some
// node's local rules refused a chain it was offered.
func RejectionRate(rep *faultsim.Report) float64 {
	if rep.BlocksMined == 0 {
		return 0
	}
	rej := 0
	for _, n := range rep.Nodes {
		rej += n.Rejections
	}
	return float64(rej) / float64(rep.BlocksMined)
}

// FaultBatches replays a fault scenario in `batches` independent runs,
// batch b reseeded to sc.Seed+b with the batch index appended to the
// scenario name, and summarizes the metric across them. Batches run
// GOMAXPROCS at a time; batch b's seed never depends on scheduling, so
// the summary is identical at every GOMAXPROCS setting.
func FaultBatches(sc faultsim.Scenario, batches int, metric Metric) (stats.Summary, error) {
	if batches < 2 {
		return stats.Summary{}, errors.New("montecarlo: need at least 2 batches")
	}
	if metric == nil {
		metric = OrphanFraction
	}
	if err := sc.Validate(); err != nil {
		return stats.Summary{}, err
	}
	vals := make([]float64, batches)
	errs := make([]error, batches)
	par.For(batches, func(b int) {
		bsc := sc
		bsc.Seed = sc.Seed + int64(b)
		bsc.Name = fmt.Sprintf("%s#%d", sc.Name, b)
		rep, err := faultsim.Run(bsc, nil)
		if err != nil {
			errs[b] = err
			return
		}
		vals[b] = metric(rep)
	})
	for _, err := range errs {
		if err != nil {
			return stats.Summary{}, err
		}
	}
	return stats.Summarize(vals)
}
