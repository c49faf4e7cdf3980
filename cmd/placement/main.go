// Command placement searches for the workflow-ensemble placement that
// maximizes the paper's objective F(P^{U,A,P}) — the scheduling use the
// paper proposes as future work.
//
// Usage:
//
//	placement [-members N] [-analyses K] [-nodes M]
//	          [-mode exhaustive|greedy|anneal]
//	          [-top N] [-iterations N] [-seed N] [-progress]
//
// The exhaustive mode ranks every candidate placement.Enumerate streams:
// each placement that fits the nodes' cores, once up to node relabeling,
// named P1, P2, … in enumeration order. Each candidate is scored
// in-process by scheduler.NewObjective: in closed form where that equals
// the simulation, by one simulation where a NIC fair-shares remote reads.
// Ties in F are ordered by placement key, so the ranking is a
// deterministic function of the flags.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/report"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
)

func main() {
	var (
		members    = flag.Int("members", 2, "ensemble members")
		analyses   = flag.Int("analyses", 1, "analyses per simulation")
		nodes      = flag.Int("nodes", 3, "nodes available")
		mode       = flag.String("mode", "exhaustive", "exhaustive, greedy, or anneal")
		top        = flag.Int("top", 5, "show the N best placements (exhaustive only)")
		iterations = flag.Int("iterations", 0, "annealing iterations (0 = default)")
		seed       = flag.Int64("seed", 1, "annealing RNG seed")
		progress   = flag.Bool("progress", false, "print periodic search progress to stderr")
	)
	flag.Parse()
	if err := run(*members, *analyses, *nodes, *mode, *top, *iterations, *seed, *progress); err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		os.Exit(1)
	}
}

func run(members, analyses, nodes int, mode string, top, iterations int, seed int64, progress bool) error {
	spec := cluster.Cori(nodes)
	es := runtime.PaperEnsemble("search", members, analyses, 8)
	obj := scheduler.NewObjective(spec, es, indicators.StageUAP)

	switch mode {
	case "exhaustive":
		// Rank all candidates so -top can show more than the winner.
		shape, err := scheduler.ShapeOf(es)
		if err != nil {
			return err
		}
		var candidates []placement.Placement
		if err := placement.Enumerate(spec, shape, nodes, func(c placement.Placement) {
			candidates = append(candidates, c)
		}); err != nil {
			return err
		}
		all := score(candidates, obj)
		if len(all) == 0 {
			return fmt.Errorf("no feasible placement for %d members x (1+%d) components on %d nodes",
				members, analyses, nodes)
		}
		rank(all)
		t := report.NewTable(
			fmt.Sprintf("Top placements by F(P^{U,A,P}) — %d members, %d analyses/sim, %d nodes, %d candidates",
				members, analyses, nodes, len(all)),
			"rank", "F", "nodes used", "placement")
		for i, s := range all {
			if i >= top {
				break
			}
			t.AddRow(i+1, s.f, s.p.M(), s.p.String())
		}
		fmt.Println(t.String())
	case "greedy", "anneal":
		var mon *scheduler.Monitor
		if progress {
			mon = &progressMonitor
		}
		res, err := scheduler.Search(scheduler.Strategy(mode), spec, es, nodes, obj, mon,
			scheduler.AnnealOptions{Iterations: iterations, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("best placement (%s, %d evaluations): F = %s\n%s\n",
			mode, res.Evaluated, report.FormatFloat(res.Score), res.Placement.String())
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

// scored is one feasible candidate with its objective and placement key.
type scored struct {
	p   placement.Placement
	key string
	f   float64
}

// score prices every candidate the objective accepts.
func score(candidates []placement.Placement, obj scheduler.Objective) []scored {
	var all []scored
	for _, c := range candidates {
		f, err := obj(c)
		if err != nil {
			continue
		}
		all = append(all, scored{p: c, key: c.Key(), f: f})
	}
	return all
}

// tieTolerance is the relative difference in F below which two
// placements tie: two pricings of equal placements may differ by float
// noise, and the ranking must not depend on it.
const tieTolerance = 1e-12

// rank orders all by descending F. Runs of candidates each within
// tieTolerance·|F| of the next are ties, ordered by placement key, so
// the ranking does not depend on the order the candidates arrive in.
func rank(all []scored) {
	slices.SortStableFunc(all, func(a, b scored) int { return cmp.Compare(b.f, a.f) })
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && math.Abs(all[j-1].f-all[j].f) <= tieTolerance*math.Abs(all[j-1].f) {
			j++
		}
		slices.SortStableFunc(all[i:j], func(a, b scored) int { return strings.Compare(a.key, b.key) })
		i = j
	}
}

// progressMonitor prints search progress to stderr at the default cadence.
var progressMonitor = scheduler.Monitor{
	OnProgress: func(p scheduler.Progress) {
		marker := ""
		if p.Final {
			marker = " (final)"
		}
		fmt.Fprintf(os.Stderr, "[%s] %d objective calls, best F = %.4f, %s elapsed%s\n",
			p.Strategy, p.Evaluated, p.BestScore, p.Elapsed.Round(1e6), marker)
	},
}
