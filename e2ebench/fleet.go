package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/controlplane"
	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/profiler"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// controllerFlags mirrors the cmd/pocolo-controller flags a workload
// names. Every field not set by a workload keeps the command's default,
// so the controller under test is the one an operator would start.
type controllerFlags struct {
	transport  string // -transport
	solver     string // -solver
	podSize    int    // -pod-size (0 = default)
	budgetTree bool   // -budget-tree: per-pod tree at 90% of provisioned power
}

// agentFlags mirrors the cmd/pocolo-agent flags a workload names; zero
// keeps the command's default.
type agentFlags struct {
	seriesCap   int // -series-cap (default 4096 points)
	traceEvents int // -trace-events (default ring; negative disables)
}

// fleetAgentFlags is what the 1k fleets run their agents with. A real
// agent is its own process, but here 1,000 share one: with the default
// 4096-point series and decision-trace ring they would hold several GB
// (about 1.1 KB per tick per agent for the series and 8 KB per heartbeat
// per agent for the ring), which would make peak_rss_mb measure agent
// history rather than the controller.
var fleetAgentFlags = agentFlags{seriesCap: 512, traceEvents: -1}

// controllerConfig is the ControllerConfig cmd/pocolo-controller derives
// from its flags: -heartbeat 1s, -dead-after 3, -retries 1, -jitter 0.2,
// -resolve-every 30s, -seed 42, the default decision-trace ring and the
// obs registry on, plus the flags the workload names. Only the
// in-process client, the synthetic clock and the log sink differ from a
// deployment.
func (f *fleet) controllerConfig() controlplane.ControllerConfig {
	fl := f.spec.flags
	return controlplane.ControllerConfig{
		AgentURLs:    f.urls,
		BE:           f.be,
		Trace:        trace.New("controller", trace.DefaultEvents),
		Obs:          obs.NewRegistry(),
		BudgetTree:   f.tree,
		Heartbeat:    time.Second,
		DeadAfter:    3,
		Retries:      1,
		Jitter:       0.2,
		Solver:       fl.solver,
		ResolveEvery: 30 * time.Second,
		Seed:         42,
		Transport:    fl.transport,
		PodSize:      fl.podSize,
		Logf:         f.log.printf,
		Client:       f.net.client(),
		Now:          f.now,
	}
}

// models holds the fitted catalog models shared by every agent of a
// fleet (fitted once per set-up, as each agent process would at start).
type models struct {
	platform machine.Config
	lcs, bes []*workload.Spec
	byName   map[string]*utility.Model
	beModels map[string]*utility.Model
}

func fitModels() (*models, error) {
	cat := workload.MustDefaults()
	m := &models{platform: machine.XeonE52650(), lcs: cat.LC(), bes: cat.BE()}
	specs := append(append([]*workload.Spec{}, m.lcs...), m.bes...)
	fitted, err := profiler.FitAll(m.platform, specs, 7)
	if err != nil {
		return nil, fmt.Errorf("fitting models: %w", err)
	}
	m.byName = fitted
	m.beModels = make(map[string]*utility.Model, len(m.bes))
	for _, be := range m.bes {
		m.beModels[be.Name] = fitted[be.Name]
	}
	return m, nil
}

// fleet is one workload's in-process cluster: agents behind a loopback
// HTTP fabric, their heartbeat encoders, and the controller, all driven
// in lockstep by one goroutine.
type fleet struct {
	spec   *workloadSpec
	agents []*controlplane.Agent
	spikes []*spikeTrace
	urls   []string
	hosts  []string
	index  map[string]int // agent name → index
	be     []string
	tree   string
	net    *loopback
	ctl    *controlplane.Controller
	enc    []*controlplane.HeartbeatEncoder // nil under poll
	// harness checks DefaultCheckers (and tree conservation) on every
	// agent tick; nil in untraced runs.
	harness *invariant.Harness
	log     *logSink

	clockMu sync.Mutex
	clock   time.Time
	// rd is the concurrent reader; readArmed releases it at the next
	// controller clock read.
	rd        *reader
	readArmed atomic.Bool

	crashed     []bool
	partitioned []bool
	// last is each agent's latest snapshot as sent to (stream) or read by
	// (poll) the controller, the input to phase replays and the
	// placement-quality check.
	last []controlplane.StatsResponse
}

// newFleet builds a workload's agents, fabric and controller. It does
// not run any heartbeat.
func newFleet(spec *workloadSpec, seed int64, checkInvariants bool) (*fleet, error) {
	m, err := fitModels()
	if err != nil {
		return nil, err
	}
	n := spec.agents
	f := &fleet{
		spec:        spec,
		net:         newLoopback(),
		index:       make(map[string]int, n),
		clock:       time.Unix(1_700_000_000, 0),
		crashed:     make([]bool, n),
		partitioned: make([]bool, n),
		last:        make([]controlplane.StatsResponse, n),
		log:         &logSink{},
	}
	if checkInvariants {
		f.harness = invariant.NewHarness(invariant.DefaultCheckers()...)
	}
	var provisioned float64
	cfgs := make([]controlplane.AgentConfig, n)
	for i := range cfgs {
		lc := m.lcs[i%len(m.lcs)]
		base, err := workload.NewTwoPeakTrace(0.3, 0.5, 0.8, 20*time.Second)
		if err != nil {
			return nil, err
		}
		spike := &spikeTrace{inner: base}
		cfgs[i] = controlplane.AgentConfig{
			Name:         fmt.Sprintf("agent-%04d", i),
			Machine:      m.platform,
			LC:           lc,
			LCModel:      m.byName[lc.Name],
			BECandidates: m.bes,
			BEModels:     m.beModels,
			Trace:        spike,
			SimTick:      100 * time.Millisecond,
			Seed:         seed + int64(i),
			Invariants:   f.harness,
			SeriesCap:    spec.agent.seriesCap,
			TraceEvents:  spec.agent.traceEvents,
		}
		provisioned += lc.ProvisionedPowerW
		f.spikes = append(f.spikes, spike)
	}
	for i, ac := range cfgs {
		a, err := controlplane.NewAgent(ac)
		if err != nil {
			return nil, err
		}
		host := fmt.Sprintf("agent-%d", i)
		f.net.add(host, a.Handler())
		f.agents = append(f.agents, a)
		f.hosts = append(f.hosts, host)
		f.urls = append(f.urls, "http://"+host)
		f.index[ac.Name] = i
	}
	// One best-effort replica per two agents, named as the stream demo
	// names them ("graph#3").
	for i := 0; i < n/2; i++ {
		f.be = append(f.be, fmt.Sprintf("%s#%d", m.bes[i%len(m.bes)].Name, i/len(m.bes)))
	}
	if spec.flags.budgetTree {
		f.tree = podBudgetTree(cfgs, spec.podSize(), provisioned)
	}
	ctl, err := controlplane.NewController(f.controllerConfig())
	if err != nil {
		return nil, err
	}
	f.ctl = ctl
	if spec.flags.transport == controlplane.TransportStream {
		f.enc = make([]*controlplane.HeartbeatEncoder, n)
		for i, a := range f.agents {
			f.enc[i] = controlplane.NewHeartbeatEncoder(a.Name(), f.urls[i])
		}
	}
	if f.harness != nil && f.tree != "" {
		if err := f.harness.Register(invariant.NewTreeConservation(ctl)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// now is the controller's clock. The first read after readArmed is set
// is the round's entry, which releases the reader.
func (f *fleet) now() time.Time {
	if f.readArmed.CompareAndSwap(true, false) {
		f.rd.start <- struct{}{}
	}
	f.clockMu.Lock()
	defer f.clockMu.Unlock()
	return f.clock
}

func (f *fleet) tick() {
	f.clockMu.Lock()
	f.clock = f.clock.Add(time.Second)
	f.clockMu.Unlock()
}

// podBudgetTree is the stream demo's budget tree: one node per pod of
// podSize agents, each bounding its pod at 90% of provisioned power,
// under a datacenter root at 90% of the fleet's.
func podBudgetTree(agents []controlplane.AgentConfig, podSize int, provisionedW float64) string {
	perAgent := provisionedW / float64(len(agents))
	var b strings.Builder
	fmt.Fprintf(&b, "dc:%.0f{", provisionedW*0.9)
	for p := 0; p*podSize < len(agents); p++ {
		lo, hi := p*podSize, min((p+1)*podSize, len(agents))
		if p > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%.0f{", podNode(p), perAgent*float64(hi-lo)*0.9)
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteByte(',')
			}
			b.WriteString(agents[i].Name)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

func podNode(p int) string { return fmt.Sprintf("pod-%d", p) }

// logSink is the controller's log: lines are formatted, as
// cmd/pocolo-controller formats them for its log, and dropped.
type logSink struct {
	mu sync.Mutex
	b  []byte
}

func (s *logSink) printf(format string, args ...any) {
	s.mu.Lock()
	s.b = fmt.Appendf(s.b[:0], format, args...)
	s.mu.Unlock()
}

// spikeTrace wraps an agent's load trace with a benchmark-controlled
// override, the injected LC load spike. Only the main goroutine sets
// it, between Advance calls.
type spikeTrace struct {
	inner workload.Trace
	level float64 // > 0 while a spike is active
}

func (t *spikeTrace) String() string          { return t.inner.String() + "+spike" }
func (t *spikeTrace) Duration() time.Duration { return t.inner.Duration() }
func (t *spikeTrace) LoadFraction(elapsed time.Duration) float64 {
	if t.level > 0 {
		return t.level
	}
	return t.inner.LoadFraction(elapsed)
}

// heartbeatTimes is one lockstep heartbeat's measurements.
type heartbeatTimes struct {
	ingest time.Duration // IngestBatch (stream only)
	round  time.Duration // Controller.Round
	read   time.Duration // concurrent Status() latency
	// ctrlBytes is the heap allocated during ingest and Round; gc is the
	// collection run before them (timed window only).
	ctrlBytes uint64
	gc        time.Duration
	// probeRefused reports that a poll probe of the round was refused (a
	// crashed host), so the round paid the controller's retry sleep.
	probeRefused bool
	// Solver cell-memo work done by the controller this heartbeat.
	cellsComputed, cellsReused int
}

// ctrl is the controller's measured time in the heartbeat, before its
// share of garbage collection is charged (see drive).
func (t heartbeatTimes) ctrl() time.Duration { return t.ingest + t.round }

func (t heartbeatTimes) allocKB() float64 { return float64(t.ctrlBytes) / 1024 }

// reader is the second goroutine, an operator polling the controller:
// one Controller.Status() per Round, issued when the round reads the
// controller clock on entry — just before it takes the controller lock —
// so the read measures how long the round's lock blocks it rather than
// a race for the lock.
type reader struct {
	start chan struct{}
	done  chan readTime
	wg    sync.WaitGroup
}

type readTime struct {
	start time.Time
	took  time.Duration
}

// startReader starts the fleet's reader; stopReader ends it.
func (f *fleet) startReader() {
	// Buffered so the round's clock read never blocks on the handoff.
	r := &reader{start: make(chan struct{}, 1), done: make(chan readTime, 1)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for range r.start {
			t := time.Now()
			f.ctl.Status()
			r.done <- readTime{t, time.Since(t)}
		}
	}()
	f.rd = r
}

func (f *fleet) stopReader() {
	close(f.rd.start)
	f.rd.wg.Wait()
	f.rd = nil
}

// agentsAdvance steps every running agent one heartbeat of simulated
// time. Crashed agents are paused, as a dead process does not advance.
func (f *fleet) agentsAdvance(tr *tracer) error {
	for i, a := range f.agents {
		if f.crashed[i] {
			continue
		}
		sp := tr.begin(spanAgentAdvance)
		err := a.Advance(time.Second)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("advancing %s: %w", a.Name(), err)
		}
	}
	return nil
}

// agentsEncode is the agents' send step under the stream transport:
// every running agent snapshots its stats and encodes a heartbeat. A
// partitioned agent's frame is lost in flight, so its sender resyncs;
// the returned frames are the ones that reach the controller.
func (f *fleet) agentsEncode(tr *tracer) ([][]byte, []int, error) {
	frames := make([][]byte, 0, len(f.agents))
	from := make([]int, 0, len(f.agents))
	for i, a := range f.agents {
		if f.crashed[i] {
			continue
		}
		sp := tr.begin(spanAgentStats)
		stats, epoch := a.StatsEpoch()
		tr.end(sp)
		sp = tr.begin(spanCodecDelta) // endFrame classifies the frame
		frame, err := f.enc[i].Encode(stats, epoch)
		tr.endFrame(sp, frame)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding heartbeat of %s: %w", a.Name(), err)
		}
		f.last[i] = stats
		if f.partitioned[i] {
			f.enc[i].Resync()
			continue
		}
		frames = append(frames, frame)
		from = append(from, i)
	}
	return frames, from, nil
}

// heartbeat runs one lockstep heartbeat: agents advance and (stream)
// encode, then the controller ingests and runs one Round while the
// reader issues a concurrent Status(). Only ingest and Round are
// controller time; agent-side work is timed apart. In the timed window
// garbage is collected before the controller's calls, and the bytes the
// calls allocate are counted so drive can charge the controller its
// share; warm-up heartbeats leave collection to the runtime, as a fresh
// process would.
func (f *fleet) heartbeat(ctx context.Context, tr *tracer, window bool) (heartbeatTimes, error) {
	var t heartbeatTimes
	f.tick()
	if err := f.agentsAdvance(tr); err != nil {
		return t, err
	}
	var frames [][]byte
	var from []int
	if f.enc != nil {
		var err error
		if frames, from, err = f.agentsEncode(tr); err != nil {
			return t, err
		}
	} else {
		// Poll agents serve their snapshot inside the round's probe; the
		// replays read the same state afterwards (it does not change
		// between the probe and the end of the round), and that read
		// times the agents' snapshot cost.
		defer func() {
			for i, a := range f.agents {
				if !f.crashed[i] {
					sp := tr.begin(spanAgentStats)
					f.last[i] = a.Stats()
					tr.end(sp)
				}
			}
		}()
	}
	if window {
		t.gc = collectGarbage()
	}
	alloc0 := heapAllocated()
	_, hits0, misses0 := cluster.CellMemoStats()

	if f.enc != nil {
		sp := tr.begin(spanIngest)
		start := time.Now()
		acks := f.ctl.IngestBatch(frames)
		t.ingest = time.Since(start)
		tr.end(sp)
		for k, ack := range acks {
			f.enc[from[k]].Ack(ack)
		}
	}

	f.net.beginRound()
	sp := tr.begin(spanRound)
	f.readArmed.Store(true)
	start := time.Now()
	f.ctl.Round(ctx)
	t.round = time.Since(start)
	tr.end(sp)
	rt := <-f.rd.done
	t.read = rt.took
	tr.span(spanRead, rt.start, rt.took)
	t.ctrlBytes = heapAllocated() - alloc0
	_, hits, misses := cluster.CellMemoStats()
	t.cellsComputed, t.cellsReused = misses-misses0, hits-hits0
	t.probeRefused = f.net.roundProbesRefused() > 0
	f.net.endRound(tr)
	return t, nil
}

// collectGarbage runs a collection, outside any timed section, once the
// heap holds more garbage than half the live heap, and returns how long
// it took. The in-process agents and the benchmark's checks allocate
// about twice what the controller does per heartbeat (on steady-1k about
// 8 MB against 4 MB), and they hold most of the live heap; left to the
// runtime, collections would start at random inside controller timings.
// With the collector's default target (twice the live heap) no automatic
// cycle starts in between. drive charges the controller its share of
// these collections, in proportion to what it allocated.
func collectGarbage() time.Duration {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if live, heap := s[0].Value.Uint64(), s[1].Value.Uint64(); heap > live+live/2 {
		start := time.Now()
		runtime.GC()
		return time.Since(start)
	}
	return 0
}
