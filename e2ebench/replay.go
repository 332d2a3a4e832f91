package main

import (
	"fmt"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/cluster"
	"pocolo/internal/controlplane"
)

// replayer times the phases inside Controller.Round that the benchmark
// cannot wrap from outside — the placement solve and the budget
// division — by replaying their public calls on the same heartbeat
// inputs: the agents the controller believes alive, their reported
// snapshots, and the controller's view of each agent's power draw.
type replayer struct {
	f    *fleet
	tree *tree.Tree // nil without a budget tree
	est  *budget.DemandEstimator
}

func newReplayer(f *fleet) (*replayer, error) {
	r := &replayer{f: f}
	if f.tree == "" {
		return r, nil
	}
	t, err := tree.Parse(f.tree)
	if err != nil {
		return nil, err
	}
	for node, w := range f.ctl.NodeBudgets() {
		if err := t.SetBudget(node, w); err != nil {
			return nil, err
		}
	}
	smoothing, err := budget.ResolveSmoothing(nil)
	if err != nil {
		return nil, err
	}
	margin, err := budget.ResolveMarginW(nil)
	if err != nil {
		return nil, err
	}
	r.tree = t
	r.est = budget.NewDemandEstimator(len(t.Hosts()), smoothing, margin)
	return r, nil
}

// apply mirrors a brownout edge onto the replay tree. The controller has
// just accepted the same budget for the same node of the same tree, so
// the mirror cannot fail.
func (r *replayer) apply(ev event, origBudget map[int]float64) {
	if r.tree == nil {
		return
	}
	switch ev.kind {
	case evBrownout:
		_ = r.tree.SetBudget(podNode(ev.pod), origBudget[ev.pod]*(1-ev.level))
	case evRestore:
		_ = r.tree.SetBudget(podNode(ev.pod), origBudget[ev.pod])
	}
}

// heartbeat replays this heartbeat's budget division and, when the
// controller re-solved, its placement solve.
func (r *replayer) heartbeat(tr *tracer, st controlplane.Status, resolved bool) error {
	if r.tree != nil {
		if err := r.divide(tr, st); err != nil {
			return err
		}
	}
	if resolved {
		return r.solve(tr, st)
	}
	return nil
}

func (r *replayer) divide(tr *tracer, st controlplane.Status) error {
	leaves := r.tree.Hosts()
	demand := make([]float64, len(leaves))
	caps := make([]float64, len(leaves))
	floors := make([]float64, len(leaves))
	for k, name := range leaves {
		i := r.f.index[name]
		s := r.f.last[i]
		r.est.Observe(k, st.Agents[i].PowerW, s.Machine.IdlePowerW)
		demand[k] = r.est.Demand(k)
		caps[k] = s.ProvisionedPowerW
		floors[k] = s.Machine.IdlePowerW + 1
	}
	if err := r.tree.ValidateFloors(floors); err != nil {
		return fmt.Errorf("replaying budget division: %w", err)
	}
	sp := tr.begin(spanReplayBudget)
	_, err := r.tree.Alloc(demand, caps, floors)
	tr.end(sp)
	return err
}

func (r *replayer) solve(tr *tracer, st controlplane.Status) error {
	cfg, err := r.f.matrixConfig(st)
	if err != nil {
		return err
	}
	now := r.f.now()
	if r.f.spec.flags.solver == controlplane.SolverSharded {
		sp := tr.begin(spanReplaySharded)
		sh, err := cluster.NewSharded(cfg, cluster.ShardSettings{PodSize: r.f.spec.podSize()})
		if err == nil {
			_, _, err = sh.Solve(nil, now)
		}
		tr.end(sp)
		return err
	}
	sp := tr.begin(spanReplayMatrix)
	mx, err := cluster.BuildMatrix(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanReplayLP)
	_, _, err = mx.SolveTraced(r.f.spec.flags.solver, nil, now)
	tr.end(sp)
	return err
}
