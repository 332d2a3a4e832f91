package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/cluster"
	"pocolo/internal/controlplane"
	"pocolo/internal/invariant"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// capTolerance is how close, in watts, an agent's enforced cap must be
// to the controller's share to count as acknowledged.
const capTolerance = 1e-6

// ratioSamples is how many heartbeats of a window are sampled for
// placement_value_ratio.
const ratioSamples = 4

// decision is one injected event, open until every affected agent
// holds what the controller decided. Its heartbeats are the rounds from
// the one it was injected at.
type decision struct {
	id     int
	ev     event
	at     int // heartbeat index of the event
	rounds int
}

// pass is the outcome of one timed window.
type pass struct {
	heartbeats int
	wall       time.Duration // heartbeat time: agents plus controller
	hostSec    float64       // simulated host-seconds advanced

	roundMs, resolveMs, readMs []float64
	decisionMs                 []float64
	// ctrlMs is the controller time of every heartbeat, its share of
	// garbage collection included; gcMs is that share's total.
	ctrlMs, gcMs   float64
	decisionRounds []int
	decisionKinds  []eventKind
	ratios         []float64
	log            []string // deterministic decision log

	attempted, failed int
	failures          map[string]int

	// Deterministic counts.
	solves, pushes, fullFrames int
	cellsComputed, cellsReused int

	layers *layerReport // traced passes only
}

// heartbeatRecord is what drive keeps of a heartbeat until the window's
// garbage-collection rate is known.
type heartbeatRecord struct {
	ctrl                   time.Duration
	ctrlBytes              uint64
	resolved, probeRefused bool
}

func (p *pass) fail(class string, n int) {
	if n <= 0 {
		return
	}
	p.failed += n
	p.failures[class] += n
}

// setUp builds the workload's fleet and runs the warm-up heartbeats.
// Process-wide caches the fleet fills (the solver's cell memo and the
// agents' allocation plans) are cleared first, so every set-up starts
// as fresh controller and agent processes would.
func setUp(ctx context.Context, w *workloadSpec, seed int64, checkInvariants bool) (*fleet, time.Duration, error) {
	runtime.GC()
	cluster.ResetCellMemo()
	utility.Plans.Reset()
	start := time.Now()
	f, err := newFleet(w, seed, checkInvariants)
	if err != nil {
		return nil, 0, err
	}
	f.startReader()
	defer f.stopReader()
	for h := 0; h < warmupHeartbeats; h++ {
		if _, err := f.heartbeat(ctx, nil, false); err != nil {
			return nil, 0, fmt.Errorf("warm-up heartbeat %d: %w", h, err)
		}
	}
	return f, time.Since(start), nil
}

// windowHeartbeats is the timed window's length for a run of the given
// seconds.
func windowHeartbeats(w *workloadSpec, seconds float64) int {
	return max(int(math.Round(seconds*w.hbPerSec)), 4*ackBound)
}

// drive runs the timed window on a warmed fleet: events from the seeded
// schedule, one heartbeat at a time, decisions tracked to
// acknowledgment and every output checked. With tr non-nil the window
// is traced and the controller's inner phases are replayed.
func drive(ctx context.Context, f *fleet, seed int64, hbs int, tr *tracer) (*pass, error) {
	w := f.spec
	events := w.schedule(rand.New(rand.NewSource(seed)), w, hbs)
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })
	p := &pass{failures: make(map[string]int)}
	var rp *replayer
	if tr != nil {
		var err error
		if rp, err = newReplayer(f); err != nil {
			return nil, err
		}
	}
	f.startReader()
	defer f.stopReader()

	st := f.ctl.Status()
	ss0 := f.ctl.StreamStats()
	violations0 := 0
	if f.harness != nil {
		violations0 = f.harness.Count()
	}
	obs0 := f.ctl.Obs().Snapshot()
	var open, closed []*decision
	recs := make([]heartbeatRecord, 0, hbs)
	var gcTime time.Duration
	alloc0 := heapAllocated()
	next := 0
	origBudget := map[int]float64{}
	sampleEvery := max(hbs/ratioSamples, 1)

	for h := 0; h < hbs; h++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ; next < len(events) && events[next].at == h; next++ {
			ev := events[next]
			if err := f.apply(ev, origBudget); err != nil {
				return nil, err
			}
			if rp != nil {
				rp.apply(ev, origBudget)
			}
			d := &decision{id: next, ev: ev, at: h}
			open = append(open, d)
			tr.openDecision(d)
		}
		running := 0
		for i := range f.agents {
			if !f.crashed[i] {
				running++
			}
		}

		tr.beginHeartbeat(h, open)
		start := time.Now()
		hb, err := f.heartbeat(ctx, tr, true)
		p.wall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("heartbeat %d: %w", h, err)
		}
		p.heartbeats++
		p.hostSec += float64(running)
		p.cellsComputed += hb.cellsComputed
		p.cellsReused += hb.cellsReused

		prevSolves := st.Solves
		st = f.ctl.Status()
		resolved := st.Solves != prevSolves
		if resolved {
			p.solves++
		}
		recs = append(recs, heartbeatRecord{hb.ctrl(), hb.ctrlBytes, resolved, hb.probeRefused})
		gcTime += hb.gc
		p.readMs = append(p.readMs, ms(hb.read))

		pushes, pushFailed := f.net.roundPushes()
		p.pushes += pushes
		p.attempted += 1 + pushes
		p.fail("failed pushes to running agents", pushFailed)
		if err := checkPlacement(st); err != nil {
			p.fail("placement check", 1)
			p.log = append(p.log, fmt.Sprintf("hb %d placement check: %v", h, err))
		}

		if rp != nil {
			if err := rp.heartbeat(tr, st, resolved); err != nil {
				return nil, err
			}
		}

		kept := open[:0]
		for _, d := range open {
			d.rounds++
			if f.acknowledged(d.ev, st) {
				closed = append(closed, d)
				p.decisionRounds = append(p.decisionRounds, d.rounds)
				p.decisionKinds = append(p.decisionKinds, d.ev.kind)
				p.attempted++
				p.log = append(p.log, fmt.Sprintf("hb %d %s pod=%d agents=%v acked after %d", d.ev.at, d.ev.kind, d.ev.pod, shortList(d.ev.agents), d.rounds))
				tr.closeDecision(d)
				continue
			}
			if d.rounds >= ackBound {
				p.attempted++
				p.fail("decisions not acknowledged", 1)
				p.log = append(p.log, fmt.Sprintf("hb %d %s pod=%d agents=%v NOT acked", d.ev.at, d.ev.kind, d.ev.pod, shortList(d.ev.agents)))
				tr.closeDecision(d)
				continue
			}
			kept = append(kept, d)
		}
		open = kept
		tr.endHeartbeat(hb)

		if h%sampleEvery == sampleEvery-1 {
			r, err := f.placementRatio(st)
			if err != nil {
				return nil, err
			}
			p.ratios = append(p.ratios, r)
		}
	}
	for _, d := range open {
		p.attempted++
		p.fail("decisions not acknowledged", 1)
		p.log = append(p.log, fmt.Sprintf("hb %d %s NOT acked by window end", d.ev.at, d.ev.kind))
	}
	p.chargeController(recs, closed, gcTime, heapAllocated()-alloc0)

	ss := f.ctl.StreamStats()
	p.fullFrames = int(ss.Fulls - ss0.Fulls)
	p.fail("rejected heartbeat frames", int(ss.Rejects-ss0.Rejects))
	if f.harness != nil {
		n := f.harness.Count() - violations0
		p.fail("invariant violations", n)
		for _, v := range f.harness.Violations() {
			p.log = append(p.log, "violation: "+v.String())
		}
	}
	if tr != nil {
		p.layers = tr.report(p, ss0, ss)
		p.layers.crossCheck = tr.crossCheck(p, obs0, f.ctl.Obs().Snapshot())
	}
	return p, nil
}

// chargeController derives the controller-time metrics of a window.
// The window's collections are forced between timed calls (see
// collectGarbage), so each heartbeat's controller time is charged the
// collections' cost per allocated byte times what the controller
// allocated in it: the controller pays for the collection work its own
// garbage causes, the agents and checks for theirs.
//
// Heartbeats that re-solved placement are reported apart from the rest,
// and heartbeats with a refused poll probe (a crashed host) from both:
// those pay the controller's fixed probe-retry sleep, and they count
// only in the decisions spanning them.
func (p *pass) chargeController(recs []heartbeatRecord, closed []*decision, gcTime time.Duration, allocated uint64) {
	nsPerByte := 0.0
	if allocated > 0 {
		nsPerByte = float64(gcTime) / float64(allocated)
	}
	ctrl := make([]float64, len(recs))
	for h, r := range recs {
		gc := float64(r.ctrlBytes) * nsPerByte / 1e6
		ctrl[h] = ms(r.ctrl) + gc
		p.ctrlMs += ctrl[h]
		p.gcMs += gc
		switch {
		case r.probeRefused:
		case r.resolved:
			p.resolveMs = append(p.resolveMs, ctrl[h])
		default:
			p.roundMs = append(p.roundMs, ctrl[h])
		}
	}
	for _, d := range closed {
		p.decisionMs = append(p.decisionMs, sum(ctrl[d.at:d.at+d.rounds]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func shortList(ix []int) string {
	if len(ix) <= 2 {
		return fmt.Sprint(ix)
	}
	return fmt.Sprintf("[%d..%d]", ix[0], ix[len(ix)-1])
}

// apply injects one event into the fleet.
func (f *fleet) apply(ev event, origBudget map[int]float64) error {
	switch ev.kind {
	case evBrownout:
		node := podNode(ev.pod)
		orig := f.ctl.NodeBudgets()[node]
		origBudget[ev.pod] = orig
		return f.ctl.SetBudget(node, orig*(1-ev.level), "brownout")
	case evRestore:
		return f.ctl.SetBudget(podNode(ev.pod), origBudget[ev.pod], "restore")
	case evSpike:
		f.spikes[ev.agents[0]].level = ev.level
	case evSpikeEnd:
		f.spikes[ev.agents[0]].level = 0
	case evCrash, evRejoin:
		for _, i := range ev.agents {
			f.crashed[i] = ev.kind == evCrash
			f.net.setDown(f.hosts[i], f.crashed[i])
		}
	case evPartition, evHeal:
		for _, i := range ev.agents {
			f.partitioned[i] = ev.kind == evPartition
		}
	}
	return nil
}

// acknowledged reports whether the controller has decided on the event
// and every affected running agent holds that decision: its enforced
// cap equals the controller's share (cap decisions), or its placed
// best-effort app equals the controller's placement (placement
// decisions). Crashed agents hold nothing and are not asked.
func (f *fleet) acknowledged(ev event, st controlplane.Status) bool {
	alive := make(map[string]bool, len(st.Agents))
	for _, a := range st.Agents {
		alive[a.Name] = a.Alive
	}
	name := func(i int) string { return f.agents[i].Name() }
	switch ev.kind {
	case evCrash, evPartition:
		for _, i := range ev.agents {
			if alive[name(i)] {
				return false
			}
		}
	case evRejoin, evHeal:
		for _, i := range ev.agents {
			if !alive[name(i)] {
				return false
			}
		}
	}
	if ev.kind.placement() {
		desired := make(map[string]string, len(st.Placement))
		for be, agent := range st.Placement {
			desired[agent] = be
		}
		for i, a := range f.agents {
			if f.crashed[i] || !alive[a.Name()] {
				continue
			}
			if a.Assigned() != desired[a.Name()] {
				return false
			}
		}
		return true
	}
	if st.Budget == nil {
		return false
	}
	node := podNode(ev.pod)
	sum := 0.0
	for _, i := range f.spec.podAgents(ev.pod) {
		share, ok := st.Budget.Shares[name(i)]
		if !ok {
			return false
		}
		sum += share
		if f.crashed[i] || !alive[name(i)] {
			continue
		}
		if math.Abs(f.agents[i].CapW()-share) > capTolerance {
			return false
		}
	}
	// A cut is decided only once the pod's shares fit its new budget.
	return sum <= st.Budget.NodeBudgets[node]+1e-3
}

// checkPlacement validates the controller's placement against its own
// liveness view, as the fault campaign does after every round.
func checkPlacement(st controlplane.Status) error {
	hosts := make(map[string]bool, len(st.Agents))
	for _, a := range st.Agents {
		if a.Alive || st.Degraded {
			hosts[a.Name] = true
		}
	}
	return invariant.CheckPlacement(st.Placement, hosts)
}

// placementRatio is the value of the controller's placement divided by
// a from-scratch Hungarian optimum over the same matrix: the live
// agents' reported envelopes and models.
func (f *fleet) placementRatio(st controlplane.Status) (float64, error) {
	cfg, err := f.matrixConfig(st)
	if err != nil {
		return 0, err
	}
	mx, err := cluster.BuildMatrix(cfg)
	if err != nil {
		return 0, err
	}
	col := make(map[string]int, len(mx.LCNames))
	for j, n := range mx.LCNames {
		col[n] = j
	}
	got := 0.0
	for i, be := range mx.BENames {
		if host, ok := st.Placement[be]; ok {
			j, live := col[host]
			if !live {
				return 0, fmt.Errorf("placement of %s on %s outside the live set", be, host)
			}
			got += mx.Value[i][j]
		}
	}
	_, best, err := assign.Hungarian(mx.Value)
	if err != nil {
		return 0, err
	}
	if best <= 0 {
		return 0, fmt.Errorf("hungarian optimum %v is not positive", best)
	}
	return got / best, nil
}

// matrixConfig rebuilds the controller's solve input from the agents it
// believes alive, sorted by name as the controller sorts them, using
// the snapshots those agents last reported.
func (f *fleet) matrixConfig(st controlplane.Status) (cluster.MatrixConfig, error) {
	var live []int
	for _, a := range st.Agents {
		if a.Alive {
			live = append(live, f.index[a.Name])
		}
	}
	if len(live) == 0 {
		return cluster.MatrixConfig{}, fmt.Errorf("no live agents")
	}
	sort.Slice(live, func(a, b int) bool { return f.agents[live[a]].Name() < f.agents[live[b]].Name() })
	cfg := cluster.MatrixConfig{
		Machine: f.last[live[0]].Machine,
		Models:  make(map[string]*utility.Model, len(live)+len(f.be)),
	}
	for _, i := range live {
		s := f.last[i]
		cfg.LC = append(cfg.LC, &workload.Spec{
			Name:              s.Agent,
			Class:             workload.LatencyCritical,
			PeakLoad:          s.PeakLoad,
			ProvisionedPowerW: s.ProvisionedPowerW,
		})
		cfg.Models[s.Agent] = s.LCModel
	}
	beModels := f.last[live[0]].BEModels
	for _, be := range f.be {
		m := beModels[baseName(be)]
		if m == nil {
			return cluster.MatrixConfig{}, fmt.Errorf("no model for best-effort app %q", be)
		}
		cfg.Models[be] = m
		cfg.BE = append(cfg.BE, &workload.Spec{Name: be, Class: workload.BestEffort})
	}
	return cfg, nil
}

// baseName strips a replica suffix ("graph#3" → "graph").
func baseName(be string) string {
	for i := 0; i < len(be); i++ {
		if be[i] == '#' {
			return be[:i]
		}
	}
	return be
}
