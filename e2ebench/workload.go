package main

import (
	"fmt"
	"math/rand"

	"pocolo/internal/controlplane"
)

// workloadSpec is one benchmark workload: a fleet, the controller flags
// that differ from cmd/pocolo-controller's defaults, and a seeded event
// schedule.
type workloadSpec struct {
	name   string
	why    string
	agents int
	flags  controllerFlags
	agent  agentFlags
	// hbPerSec converts --seconds into the heartbeat count of the timed
	// window. It is fixed per workload, so a seed gives the same schedule
	// and the same deterministic counts whatever the machine's speed.
	hbPerSec float64
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// schedule draws the window's events; every event is one decision.
	schedule func(rng *rand.Rand, w *workloadSpec, hbs int) []event
}

func (w *workloadSpec) podSize() int {
	if w.flags.podSize > 0 {
		return w.flags.podSize
	}
	return 64
}

func (w *workloadSpec) pods() int { return (w.agents + w.podSize() - 1) / w.podSize() }

// podAgents lists the agent indices of pod p.
func (w *workloadSpec) podAgents(p int) []int {
	lo, hi := p*w.podSize(), min((p+1)*w.podSize(), w.agents)
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// warmupHeartbeats run before the timed window: discovery, the first
// solve, initial pushes and the first budget division, the first
// full-frame heartbeat of every agent, and the first divisions after
// start-up grace.
const warmupHeartbeats = 4

// ackBound is the number of heartbeats within which every decision must
// be acknowledged: under poll a dead agent is probed with capped
// exponential backoff (up to 16 heartbeats), so its rejoin is noticed at
// most 16 heartbeats late; add dead-after (3) and one heartbeat to
// push. The schedule leaves the last ackBound heartbeats of the window
// event-free so every decision can finish inside it.
const ackBound = 20

// The event cadences of the schedules below are synthetic stress rates,
// chosen for enough decisions per window in a fixed mix, not measured
// ones; see README.md.
var workloads = []*workloadSpec{
	{
		name:   "steady-1k",
		why:    "1,000 stream agents, sharded solver, per-pod budget tree; LC load spikes and pod brownouts at synthetic stress rates drive cap decisions, no membership change",
		agents: 1000,
		flags: controllerFlags{
			transport:  controlplane.TransportStream,
			solver:     controlplane.SolverSharded,
			podSize:    64,
			budgetTree: true,
		},
		agent:    fleetAgentFlags,
		hbPerSec: 20,
		setups:   4,
		schedule: func(rng *rand.Rand, w *workloadSpec, hbs int) []event {
			s := newScheduler(rng, w, hbs)
			s.capEvents(nil)
			return s.events
		},
	},
	{
		name:   "churn-1k",
		why:    "the steady-1k fleet plus agent crashes, rejoins and pod partitions at synthetic stress rates: full-frame resyncs and from-scratch sharded re-solves under the controller lock",
		agents: 1000,
		flags: controllerFlags{
			transport:  controlplane.TransportStream,
			solver:     controlplane.SolverSharded,
			podSize:    64,
			budgetTree: true,
		},
		agent:    fleetAgentFlags,
		hbPerSec: 14,
		setups:   4,
		schedule: func(rng *rand.Rand, w *workloadSpec, hbs int) []event {
			s := newScheduler(rng, w, hbs)
			resolves := s.churn(6, 40)
			s.capEvents(resolves)
			return s.events
		},
	},
	{
		name:   "shipped-32",
		why:    "32 agents under pocolo-controller's defaults (poll, dense lp, no budget tree), crashes and rejoins at a synthetic stress rate; the only path through JSON polling and the LP",
		agents: 32,
		flags: controllerFlags{
			transport: controlplane.TransportPoll,
			solver:    "lp",
		},
		hbPerSec: 40,
		setups:   16,
		schedule: func(rng *rand.Rand, w *workloadSpec, hbs int) []event {
			s := newScheduler(rng, w, hbs)
			s.crashEpisodes(20)
			return s.events
		},
	},
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// eventKind is an injected host change.
type eventKind int

const (
	evBrownout  eventKind = iota // cut a pod's budget by level
	evRestore                    // restore a cut pod's budget
	evSpike                      // force an agent's LC load to level
	evSpikeEnd                   // release a load spike
	evCrash                      // kill agents (requests refused, simulation paused)
	evRejoin                     // restart crashed agents
	evPartition                  // cut a pod's agent→controller telemetry
	evHeal                       // heal a partition
)

var eventNames = [...]string{"brownout", "restore", "spike", "spike-end", "crash", "rejoin", "partition", "heal"}

func (k eventKind) String() string { return eventNames[k] }

// placement reports whether the event's decision is a placement (as
// opposed to a cap) decision.
func (k eventKind) placement() bool { return k >= evCrash }

// event is one scheduled host change; each is one decision.
type event struct {
	at     int // heartbeat index within the timed window
	kind   eventKind
	pod    int   // brownout, restore, partition, heal; spike: the agent's pod
	agents []int // affected agents
	level  float64
}

// scheduler draws a window's events. Agents and pods are busy while an
// episode (spike, brownout, crash, partition) is open on them, so
// episodes never overlap on one target.
type scheduler struct {
	rng       *rand.Rand
	w         *workloadSpec
	last      int // last heartbeat an event may start at
	events    []event
	agentBusy []int // heartbeat at which the agent is free again
	podBusy   []int
}

func newScheduler(rng *rand.Rand, w *workloadSpec, hbs int) *scheduler {
	return &scheduler{
		rng:       rng,
		w:         w,
		last:      hbs - ackBound - 1,
		agentBusy: make([]int, w.agents),
		podBusy:   make([]int, w.pods()),
	}
}

func (s *scheduler) add(e event) { s.events = append(s.events, e) }

// pickAgent draws an agent free over [from, to) whose pod is free too,
// or -1.
func (s *scheduler) pickAgent(from, to int) int {
	for try := 0; try < 64; try++ {
		i := s.rng.Intn(s.w.agents)
		if s.agentBusy[i] <= from && s.podBusy[i/s.w.podSize()] <= from {
			s.agentBusy[i] = to
			return i
		}
	}
	return -1
}

func (s *scheduler) pickPod(from, to int) int {
	for try := 0; try < 64; try++ {
		p := s.rng.Intn(s.w.pods())
		free := s.podBusy[p] <= from
		for _, i := range s.w.podAgents(p) {
			free = free && s.agentBusy[i] <= from
		}
		if free {
			s.podBusy[p] = to
			return p
		}
	}
	return -1
}

// capEvents schedules cap decisions: an LC load spike starting every
// heartbeat and a pod brownout every 8th, each lasting 3–6 heartbeats.
// Both edges are decisions. Heartbeats in skip (the churn schedule's
// re-solve heartbeats) take no edge, so a cap decision never shares its
// heartbeat with a placement re-solve.
func (s *scheduler) capEvents(skip map[int]bool) {
	const brownoutEvery = 8
	fits := func(from, to int) bool {
		return to <= s.last && !skip[from] && !skip[to]
	}
	brownoutPhase := s.rng.Intn(brownoutEvery)
	for h := 0; h <= s.last; h++ {
		if end := h + 3 + s.rng.Intn(4); fits(h, end) {
			if i := s.pickAgent(h, end+1); i >= 0 {
				lvl := 0.85 + 0.15*s.rng.Float64()
				p := i / s.w.podSize()
				s.add(event{at: h, kind: evSpike, pod: p, agents: []int{i}, level: lvl})
				s.add(event{at: end, kind: evSpikeEnd, pod: p, agents: []int{i}})
			}
		}
		if h%brownoutEvery == brownoutPhase {
			if end := h + 3 + s.rng.Intn(4); fits(h, end) {
				if p := s.pickPod(h, end+1); p >= 0 {
					lvl := 0.1 + 0.2*s.rng.Float64()
					s.add(event{at: h, kind: evBrownout, pod: p, agents: s.w.podAgents(p), level: lvl})
					s.add(event{at: end, kind: evRestore, pod: p, agents: s.w.podAgents(p)})
				}
			}
		}
	}
}

// churn schedules a crash every crashEvery heartbeats (down 4–8
// heartbeats, so the controller declares the death before the rejoin)
// and a whole-pod partition every partitionEvery (5–8 heartbeats). It
// returns the heartbeats at which the controller re-solves for them:
// dead-after (3) missed heartbeats after a crash or partition, and the
// heartbeat of a rejoin or heal.
func (s *scheduler) churn(crashEvery, partitionEvery int) map[int]bool {
	resolves := make(map[int]bool)
	partPhase := s.rng.Intn(partitionEvery)
	for h := 0; h <= s.last; h++ {
		if h%partitionEvery == partPhase {
			if end := h + 5 + s.rng.Intn(4); end <= s.last {
				if p := s.pickPod(h, end+1); p >= 0 {
					s.add(event{at: h, kind: evPartition, pod: p, agents: s.w.podAgents(p)})
					s.add(event{at: end, kind: evHeal, pod: p, agents: s.w.podAgents(p)})
					resolves[h+2], resolves[end] = true, true
				}
			}
		}
		if h%crashEvery == 0 {
			if end := h + 4 + s.rng.Intn(5); end <= s.last {
				if i := s.pickAgent(h, end+1); i >= 0 {
					p := i / s.w.podSize()
					s.add(event{at: h, kind: evCrash, pod: p, agents: []int{i}})
					s.add(event{at: end, kind: evRejoin, pod: p, agents: []int{i}})
					resolves[h+2], resolves[end] = true, true
				}
			}
		}
	}
	return resolves
}

// crashEpisodes is shipped-32's schedule, one episode every `every`
// heartbeats: an agent crashes, a second one a heartbeat later, and
// both restart together five heartbeats after the first crash. By then
// the controller has declared both dead, and each is noticed back at
// its next back-off probe (one and two heartbeats later). Crash
// decisions are two thirds of all decisions. A refused probe, and with
// it the controller's probe-retry sleep, falls on the episode's first
// five heartbeats only; the rest of the episode, the two rejoin
// re-solves included, runs without one.
func (s *scheduler) crashEpisodes(every int) {
	for h := 0; h+5 <= s.last; h += every {
		a, b := s.pickAgent(h, h+every), s.pickAgent(h, h+every)
		if a < 0 || b < 0 {
			continue
		}
		s.add(event{at: h, kind: evCrash, agents: []int{a}})
		s.add(event{at: h + 1, kind: evCrash, agents: []int{b}})
		s.add(event{at: h + 5, kind: evRejoin, agents: []int{a, b}})
	}
}
