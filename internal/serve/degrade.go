package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rlckit"
)

// Deadline-aware graceful degradation: when a request arrives with a
// compute budget (a client deadline or the server's -request-timeout)
// that is too small for the estimator it asked for, the server answers
// with a cheaper estimator instead of burning the whole budget and
// returning a 503. The downgrade chains preserve the semantics of the
// answer (a delay distribution, a skew table) and only lower its
// fidelity, always in the documented accuracy order:
//
//	sweep:  simulated → reduced → closed;  smart → closed
//	tree:   mna → reduced → closed
//
// A degraded response says so — degraded:true plus a degrade_reason
// spelling out the budget arithmetic — and is never cached, so a later
// retry with a roomier budget recomputes at full fidelity.

// Per-sample cost estimates, calibrated against this package's and the
// engines' benchmarks (BenchmarkSweep10k, BenchmarkTreeDelay,
// sweep/bench_test.go) on the CI baseline and rounded up: the point is
// a safe go/no-go decision, not profiling accuracy, so each constant
// overshoots its measured mean by ~2×.
const (
	costSweepClosed    = 4 * time.Microsecond
	costSweepSmart     = 60 * time.Microsecond
	costSweepReduced   = 300 * time.Microsecond
	costSweepSimulated = 1200 * time.Microsecond

	// Tree engines cost per node: the shared MNA transient factors and
	// sweeps a banded system sized by the node count, the reduced engine
	// pays a per-tree Arnoldi build plus a small per-node transient, the
	// closed form is two moment traversals.
	costTreeMNAPerNode     = 2 * time.Millisecond
	costTreeReducedBuild   = 80 * time.Millisecond
	costTreeReducedPerNode = 300 * time.Microsecond
	costTreeClosedPerNode  = 3 * time.Microsecond
)

// budgetSlack keeps degradation decisions honest about non-compute
// overhead (queueing, marshaling, GC): an estimator is admitted only if
// its estimate fits in this fraction of the remaining budget.
const budgetSlack = 0.7

// remainingBudget reports the compute budget ctx still has, and whether
// it has a deadline at all.
func remainingBudget(ctx context.Context) (time.Duration, bool) {
	if ctx == nil {
		return 0, false
	}
	d, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(d), true
}

// divideByWorkers scales a serial cost estimate by the pool width the
// request will actually run at.
func divideByWorkers(total time.Duration, workers int) time.Duration {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return total / time.Duration(workers)
}

// sweepSampleCost returns the per-sample cost estimate of a sweep
// estimator.
func sweepSampleCost(est rlckit.SweepEstimator) time.Duration {
	switch est {
	case rlckit.SweepEstimatorSmart:
		return costSweepSmart
	case rlckit.SweepEstimatorSimulated:
		return costSweepSimulated
	case rlckit.SweepEstimatorReduced:
		return costSweepReduced
	default:
		return costSweepClosed
	}
}

// sweepDowngrade is the next-cheaper estimator in the chain, or the
// input itself when there is nothing cheaper.
func sweepDowngrade(est rlckit.SweepEstimator) rlckit.SweepEstimator {
	if est == rlckit.SweepEstimatorSimulated {
		return rlckit.SweepEstimatorReduced
	}
	return rlckit.SweepEstimatorClosed
}

// degradeSweep picks the estimator a sweep of `samples` total samples
// should run with under ctx's budget. It returns the chosen estimator
// and, when that differs from the request, the reason string for the
// response metadata.
func degradeSweep(ctx context.Context, requested rlckit.SweepEstimator, samples, workers int) (est rlckit.SweepEstimator, reason string) {
	budget, ok := remainingBudget(ctx)
	if !ok {
		return requested, ""
	}
	est = requested
	for {
		cost := divideByWorkers(time.Duration(samples)*sweepSampleCost(est), workers)
		if float64(cost) <= budgetSlack*float64(budget) || est == rlckit.SweepEstimatorClosed {
			break
		}
		est = sweepDowngrade(est)
	}
	if est == requested {
		return est, ""
	}
	cost := divideByWorkers(time.Duration(samples)*sweepSampleCost(requested), workers)
	return est, fmt.Sprintf("estimator %s needs ~%s for %d samples but the deadline leaves %s; degraded to %s",
		requested, cost.Round(time.Millisecond), samples, budget.Round(time.Millisecond), est)
}

// treeEngineCost estimates one tree analysis with the given engine on a
// tree of `nodes` nodes.
func treeEngineCost(engine rlckit.TreeEngine, nodes int) time.Duration {
	n := time.Duration(nodes)
	switch engine {
	case rlckit.TreeEngineMNA:
		return n * costTreeMNAPerNode
	case rlckit.TreeEngineReduced:
		return costTreeReducedBuild + n*costTreeReducedPerNode
	default:
		return n * costTreeClosedPerNode
	}
}

// treeDowngrade is the next-cheaper tree engine in the chain.
func treeDowngrade(engine rlckit.TreeEngine) rlckit.TreeEngine {
	if engine == rlckit.TreeEngineMNA {
		return rlckit.TreeEngineReduced
	}
	return rlckit.TreeEngineClosed
}

// degradeTree picks the engine a tree analysis of `nodes` nodes should
// run with under ctx's budget, mirroring degradeSweep.
func degradeTree(ctx context.Context, requested rlckit.TreeEngine, nodes int) (engine rlckit.TreeEngine, reason string) {
	budget, ok := remainingBudget(ctx)
	if !ok {
		return requested, ""
	}
	engine = requested
	for {
		if float64(treeEngineCost(engine, nodes)) <= budgetSlack*float64(budget) || engine == rlckit.TreeEngineClosed {
			break
		}
		engine = treeDowngrade(engine)
	}
	if engine == requested {
		return engine, ""
	}
	return engine, fmt.Sprintf("engine %s needs ~%s for %d nodes but the deadline leaves %s; degraded to %s",
		requested, treeEngineCost(requested, nodes).Round(time.Millisecond),
		nodes, budget.Round(time.Millisecond), engine)
}
