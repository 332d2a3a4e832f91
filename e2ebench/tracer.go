package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/obs"
)

// spanKind names a span recorded around one call into a layer.
type spanKind int

const (
	spanHeartbeat spanKind = iota
	spanAgentAdvance
	spanAgentStats
	spanCodecFull
	spanCodecDelta
	spanIngest
	spanRound
	spanRead
	spanPushCap
	spanPushAssign
	spanPollProbe
	spanReplayBudget
	spanReplaySharded
	spanReplayMatrix
	spanReplayLP
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"heartbeat", "agent.advance", "agent.stats", "codec.encode_full", "codec.encode_delta",
	"ingest.batch", "round", "read.status", "push.cap", "push.assign", "poll.probe",
	"budget.alloc", "cluster.sharded_solve", "cluster.matrix_build", "cluster.lp_solve",
}

// perAgent reports whether the kind is called once per agent per
// heartbeat. Those calls are timed one by one but written as one span
// per heartbeat covering them, which keeps a 1k-agent dump small.
func (k spanKind) perAgent() bool {
	return k == spanAgentAdvance || k == spanAgentStats || k == spanCodecFull || k == spanCodecDelta
}

// span is one recorded interval. Spans of one heartbeat share its
// parent; decisions lists the decisions open during a heartbeat.
type span struct {
	kind       spanKind
	start, end time.Time
	parent     int // index into tracer.spans, -1 for none
	calls      int
	bytes      int
	decisions  []int
}

// decisionSpan covers one decision from its event to its
// acknowledgment; heartbeat spans carry the ids of the decisions open
// during them.
type decisionSpan struct {
	id         int
	name       string
	start, end time.Time
	rounds     int
}

// tracer keeps spans in memory and accumulates per-layer work; it is
// written out when the run ends. A nil tracer records nothing.
type tracer struct {
	t0        time.Time
	spans     []span
	decisions []decisionSpan
	open      map[int]int // decision id → index into decisions
	hb        int         // current heartbeat span
	round     int         // current round span
	phase     map[spanKind]*span

	sum   [numSpanKinds]time.Duration
	n     [numSpanKinds]int
	bytes [numSpanKinds]int

	probeInterval, pushInterval time.Duration
	allocKB                     float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[int]int), hb: -1, round: -1}
}

type token struct {
	kind  spanKind
	start time.Time
}

func (t *tracer) begin(k spanKind) token {
	if t == nil {
		return token{}
	}
	return token{kind: k, start: time.Now()}
}

func (t *tracer) end(tok token) {
	if t == nil {
		return
	}
	t.record(tok.kind, tok.start, time.Now(), 1, 0)
}

// endFrame closes an encode span, classifying the frame as full or
// delta by decoding it outside the span.
func (t *tracer) endFrame(tok token, frame []byte) {
	if t == nil {
		return
	}
	end := time.Now()
	kind := spanCodecDelta
	if hb, err := controlplane.DecodeHeartbeat(frame); err == nil && hb.Full {
		kind = spanCodecFull
	}
	t.record(kind, tok.start, end, 1, len(frame))
}

// span records an interval measured elsewhere (the reader goroutine's
// Status call).
func (t *tracer) span(k spanKind, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.record(k, start, start.Add(d), 1, 0)
}

func (t *tracer) record(k spanKind, start, end time.Time, calls, bytes int) {
	t.sum[k] += end.Sub(start)
	t.n[k] += calls
	t.bytes[k] += bytes
	if k.perAgent() {
		ph := t.phase[k]
		if ph == nil {
			ph = &span{kind: k, start: start, parent: t.hb}
			t.phase[k] = ph
		}
		ph.end = end
		ph.calls += calls
		ph.bytes += bytes
		return
	}
	parent := t.hb
	if k == spanPushCap || k == spanPushAssign || k == spanPollProbe {
		parent = t.round
	}
	t.spans = append(t.spans, span{kind: k, start: start, end: end, parent: parent, calls: calls, bytes: bytes})
	if k == spanRound {
		t.round = len(t.spans) - 1
	}
}

// rpc records one round's requests of a kind, as the transport saw
// them, as a child span of the round.
func (t *tracer) rpc(k rpcKind, st rpcStats) {
	kind := [numRPCKinds]spanKind{rpcCap: spanPushCap, rpcAssign: spanPushAssign, rpcProbe: spanPollProbe}[k]
	t.spans = append(t.spans, span{kind: kind, start: st.first, end: st.end, parent: t.round, calls: st.n, bytes: st.bytes})
	t.sum[kind] += st.total
	t.n[kind] += st.n
	t.bytes[kind] += st.bytes
}

// rpcRound folds a round's transport intervals into the self-time
// accounting: probes run before pushes, and cap and assign pushes share
// one fan-out, so the push interval is their union.
func (t *tracer) rpcRound(kinds [numRPCKinds]rpcStats) {
	if p := kinds[rpcProbe]; p.n > 0 {
		t.probeInterval += p.end.Sub(p.first)
	}
	var first, end time.Time
	for _, k := range []rpcKind{rpcCap, rpcAssign} {
		st := kinds[k]
		if st.n == 0 {
			continue
		}
		if first.IsZero() || st.first.Before(first) {
			first = st.first
		}
		if st.end.After(end) {
			end = st.end
		}
	}
	if !first.IsZero() {
		t.pushInterval += end.Sub(first)
	}
}

func (t *tracer) beginHeartbeat(h int, open []*decision) {
	if t == nil {
		return
	}
	ids := make([]int, len(open))
	for i, d := range open {
		ids[i] = d.id
	}
	t.spans = append(t.spans, span{kind: spanHeartbeat, start: time.Now(), parent: -1, calls: h, decisions: ids})
	t.hb = len(t.spans) - 1
	t.round = -1
	t.phase = make(map[spanKind]*span)
}

func (t *tracer) endHeartbeat(hb heartbeatTimes) {
	if t == nil {
		return
	}
	t.spans[t.hb].end = time.Now()
	for k := spanKind(0); k < numSpanKinds; k++ {
		if ph := t.phase[k]; ph != nil {
			t.spans = append(t.spans, *ph)
		}
	}
	t.allocKB += hb.allocKB()
}

func (t *tracer) openDecision(d *decision) {
	if t == nil {
		return
	}
	t.open[d.id] = len(t.decisions)
	t.decisions = append(t.decisions, decisionSpan{id: d.id, name: d.ev.kind.String(), start: time.Now()})
}

func (t *tracer) closeDecision(d *decision) {
	if t == nil {
		return
	}
	ds := &t.decisions[t.open[d.id]]
	ds.end = time.Now()
	ds.rounds = d.rounds
	delete(t.open, d.id)
}

// heapAllocated is the cumulative bytes the heap has allocated.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerReport is a traced pass's per-layer metrics and self times.
type layerReport struct {
	metrics    []metric
	self       []metric
	crossCheck []string
}

// obsTotal sums one histogram family of a registry snapshot across its
// label sets.
func obsTotal(s obs.Snapshot, name string) (n uint64, seconds float64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			n += h.Count
			seconds += h.SumSeconds
		}
	}
	return n, seconds
}

// crossCheck sets the controller's own obs histograms over the window
// beside the benchmark's measurements of the same work. The histograms
// time slightly different intervals (noted per line), so they agree in
// magnitude, not exactly.
func (t *tracer) crossCheck(p *pass, before, after obs.Snapshot) []string {
	mean := func(name string) (float64, uint64) {
		n0, s0 := obsTotal(before, name)
		n1, s1 := obsTotal(after, name)
		if n1 == n0 {
			return 0, 0
		}
		return (s1 - s0) / float64(n1-n0), n1 - n0
	}
	var out []string
	line := func(what string, obsMs float64, n uint64, ours string, oursMs float64) {
		if n > 0 {
			out = append(out, fmt.Sprintf("%-44s %10.4f ms over %5d   %-34s %10.4f ms", what, obsMs, n, ours, oursMs))
		}
	}
	s, n := mean("pocolo_obs_round_seconds")
	line("obs round", s*1e3, n, "round.call_ms", ms(t.sum[spanRound])/float64(max(t.n[spanRound], 1)))
	s, n = mean("pocolo_obs_heartbeat_decode_seconds")
	line("obs decode per frame", s*1e3, n, "ingest.frame_us/1000 (decode+apply)", ms(t.sum[spanIngest])/float64(max(n, 1)))
	s, n = mean("pocolo_obs_budget_rebalance_seconds")
	line("obs budget rebalance (division+pushes)", s*1e3, n, "budget.alloc_us/1000 (Alloc alone)", ms(t.sum[spanReplayBudget])/float64(max(t.n[spanReplayBudget], 1)))
	if p.solves > 0 {
		n0, s0 := obsTotal(before, "pocolo_obs_pod_solve_seconds")
		n1, s1 := obsTotal(after, "pocolo_obs_pod_solve_seconds")
		line("obs pod solves per re-solve (solver only)", (s1-s0)*1e3/float64(p.solves), n1-n0, "cluster.sharded_solve_ms (+matrix)", ms(t.sum[spanReplaySharded])/float64(max(t.n[spanReplaySharded], 1)))
	}
	return out
}

// report derives the per-layer metrics of a traced pass. Self time is a
// layer's span time minus the part its child spans cover; the round's
// inner solve and budget phases are the replayed calls.
func (t *tracer) report(p *pass, ss0, ss controlplane.StreamStats) *layerReport {
	us := func(k spanKind) float64 {
		if t.n[k] == 0 {
			return 0
		}
		return float64(t.sum[k]) / float64(t.n[k]) / float64(time.Microsecond)
	}
	msPer := func(k spanKind) float64 {
		if t.n[k] == 0 {
			return 0
		}
		return ms(t.sum[k]) / float64(t.n[k])
	}
	perByte := func(k spanKind) float64 {
		if t.n[k] == 0 {
			return 0
		}
		return float64(t.bytes[k]) / float64(t.n[k])
	}
	hbs := float64(max(p.heartbeats, 1))
	frames := t.n[spanCodecFull] + t.n[spanCodecDelta]
	bytesPerFrame := 0.0
	if frames > 0 {
		bytesPerFrame = float64(t.bytes[spanCodecFull]+t.bytes[spanCodecDelta]) / float64(frames)
	}
	ingestUS := 0.0
	if ss.Frames > ss0.Frames {
		ingestUS = float64(t.sum[spanIngest]) / float64(ss.Frames-ss0.Frames) / float64(time.Microsecond)
	}
	r := &layerReport{metrics: []metric{
		{"agent.advance_us", "us", us(spanAgentAdvance)},
		{"agent.stats_us", "us", us(spanAgentStats)},
		{"codec.encode_full_us", "us", us(spanCodecFull)},
		{"codec.encode_delta_us", "us", us(spanCodecDelta)},
		{"codec.full_frames", "count", float64(t.n[spanCodecFull])},
		{"codec.bytes_per_frame", "B", bytesPerFrame},
		{"ingest.frame_us", "us", ingestUS},
		{"ingest.resyncs", "count", float64(ss.Resyncs - ss0.Resyncs)},
		{"ingest.rejects", "count", float64(ss.Rejects - ss0.Rejects)},
		{"poll.probe_us", "us", us(spanPollProbe)},
		{"poll.bytes_per_probe", "B", perByte(spanPollProbe)},
		{"push.cap_us", "us", us(spanPushCap)},
		{"push.assign_us", "us", us(spanPushAssign)},
		{"push.per_round", "count", float64(p.pushes) / hbs},
		{"push.failed", "count", float64(p.failures["failed pushes to running agents"])},
		{"round.call_ms", "ms", msPer(spanRound)},
		{"round.alloc_kb", "KB", t.allocKB / hbs},
		{"cluster.sharded_solve_ms", "ms", msPer(spanReplaySharded)},
		{"cluster.matrix_build_ms", "ms", msPer(spanReplayMatrix)},
		{"cluster.lp_solve_ms", "ms", msPer(spanReplayLP)},
		{"cluster.cells_computed", "count", float64(p.cellsComputed)},
		{"cluster.cells_reused", "count", float64(p.cellsReused)},
		{"budget.alloc_us", "us", us(spanReplayBudget)},
	}}

	solveMs := ms(t.sum[spanReplaySharded] + t.sum[spanReplayMatrix] + t.sum[spanReplayLP])
	budgetMs := ms(t.sum[spanReplayBudget])
	roundSelf := ms(t.sum[spanRound]) - ms(t.probeInterval) - ms(t.pushInterval) - solveMs - budgetMs
	r.self = []metric{
		{"self.agent_ms", "ms", ms(t.sum[spanAgentAdvance]+t.sum[spanAgentStats]) / hbs},
		{"self.codec_ms", "ms", ms(t.sum[spanCodecFull]+t.sum[spanCodecDelta]) / hbs},
		{"self.ingest_ms", "ms", ms(t.sum[spanIngest]) / hbs},
		{"self.poll_ms", "ms", ms(t.probeInterval) / hbs},
		{"self.push_ms", "ms", ms(t.pushInterval) / hbs},
		{"self.round_ms", "ms", max(roundSelf, 0) / hbs},
		{"self.cluster_ms", "ms", solveMs / hbs},
		{"self.budget_ms", "ms", budgetMs / hbs},
		{"self.read_ms", "ms", ms(t.sum[spanRead]) / hbs},
	}
	return r
}

// traceEvent is one Chrome trace-event record (chrome://tracing and
// Perfetto load the file).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome dumps the spans as Chrome trace-event JSON: complete
// events nested by time on the main thread (the reader's Status calls
// on their own thread), and one async event per decision keyed by its
// id.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	us := func(x time.Time) float64 { return float64(x.Sub(t.t0)) / float64(time.Microsecond) }
	evs := make([]traceEvent, 0, len(t.spans)+2*len(t.decisions))
	for i, s := range t.spans {
		tid := 1
		if s.kind == spanRead {
			tid = 2
		}
		args := map[string]any{"span": i, "parent": s.parent}
		if s.kind == spanHeartbeat {
			args["heartbeat"] = s.calls
			args["decisions"] = s.decisions
		} else {
			args["calls"] = s.calls
		}
		if s.bytes > 0 {
			args["bytes"] = s.bytes
		}
		evs = append(evs, traceEvent{Name: spanNames[s.kind], Cat: "layer", Ph: "X", TS: us(s.start), Dur: us(s.end) - us(s.start), PID: 1, TID: tid, Args: args})
	}
	for _, d := range t.decisions {
		if d.end.IsZero() {
			continue
		}
		id := fmt.Sprint(d.id)
		evs = append(evs,
			traceEvent{Name: d.name, Cat: "decision", Ph: "b", TS: us(d.start), PID: 1, TID: 1, ID: id, Args: map[string]any{"decision": d.id}},
			traceEvent{Name: d.name, Cat: "decision", Ph: "e", TS: us(d.end), PID: 1, TID: 1, ID: id, Args: map[string]any{"rounds": d.rounds}})
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err == nil {
		err = w.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpuSeconds is the runtime's estimate of CPU time spent in the garbage
// collector and in total since the process started.
func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
