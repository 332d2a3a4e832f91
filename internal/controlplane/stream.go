package controlplane

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pocolo/internal/parallel"
	"pocolo/internal/trace"
)

// This file is the controller's intake plane: every agent report, under
// either transport, lands in per-pod state shards as a frame. Under
// TransportStream agents push binary delta heartbeats (codec.go), which
// IngestBatch decodes and applies — one at a time over POST
// /v1/heartbeat, or batched through the bounded worker pool. Under
// TransportPoll each successful GET /v1/stats reply is applied as a full
// frame (applyPolled). Each shard serializes its writers behind a mutex,
// folds every applied frame into its decoders, and publishes the pod's
// agent views as an immutable snapshot swapped in atomically. The round
// loop never takes a shard lock: observeLocked loads each pod's current
// snapshot pointer and reads frozen views, so a round costs the same
// whether zero or ten thousand frames are in flight, and a stalled
// sender can block nothing but its own pod's ingest.

// maxHeartbeatBatch bounds one IngestBatch call.
const maxHeartbeatBatch = 1 << 16

// agentView is one agent's state as of its last applied frame. Views
// are immutable after construction: ingest replaces the pointer, never
// the fields, which is what makes the round loop's lock-free reads
// sound.
type agentView struct {
	slot      int
	stats     StatsResponse
	seq       uint64
	epoch     uint64
	lastHeard time.Time
}

// podViews is one pod's published snapshot: local index → view, nil
// until that agent's first frame applies.
type podViews struct {
	views []*agentView
}

// hbDecoder is the receiver half of the delta protocol for one agent:
// the last applied snapshot and its seq. Guarded by its shard's mutex.
type hbDecoder struct {
	synced bool
	seq    uint64
	epoch  uint64
	stats  StatsResponse
}

// hbVerdict classifies one frame's fate.
type hbVerdict int

const (
	hbApplied hbVerdict = iota
	hbStale             // duplicate or reordered behind the applied seq; ignored
	hbResync            // cannot apply; sender must promote to a full frame
)

// apply folds one decoded frame into the decoder. A full frame always
// (re)establishes sync unless it is older than what already applied; a
// delta applies only when its base is exactly the last applied seq, so
// loss, reordering, and field-mask lies degrade to a resync demand, not
// to corrupted state.
func (d *hbDecoder) apply(hb *Heartbeat) hbVerdict {
	if hb.Full {
		if d.synced && hb.Seq <= d.seq {
			// A full frame that regresses the sequence is either a
			// network replay or a restarted sender whose fresh encoder
			// began again at 1. Both get a resync demand carrying the
			// receiver's watermark (the ack's Seq): a replayed frame's
			// live sender ignores it at worst one extra full frame,
			// while a restarted sender adopts the watermark so its next
			// full frame clears it — state never rolls back, and a
			// restart converges in two heartbeats.
			return hbResync
		}
		d.stats = hb.Stats
		d.seq = hb.Seq
		d.epoch = hb.Epoch
		d.synced = true
		return hbApplied
	}
	if !d.synced {
		return hbResync
	}
	if hb.Seq <= d.seq {
		return hbStale
	}
	if hb.Base != d.seq {
		return hbResync
	}
	applyHeartbeatDelta(&d.stats, hb)
	d.seq = hb.Seq
	d.epoch = hb.Epoch
	return hbApplied
}

// resyncSeq picks the sequence a resync ack should carry: the
// receiver's watermark when it is ahead of the frame (so a restarted
// sender can adopt it), otherwise the frame's own sequence.
func resyncSeq(frameSeq, watermark uint64) uint64 {
	if watermark > frameSeq {
		return watermark
	}
	return frameSeq
}

// streamShard is one pod's ingest state: decoders behind a mutex,
// published views behind an atomic pointer.
type streamShard struct {
	base int // first global slot in this shard

	mu   sync.Mutex
	decs []hbDecoder
	snap atomic.Pointer[podViews]
}

// publishLocked rebuilds and swaps the shard's snapshot from the given
// locally-indexed dirty set. Callers hold sh.mu; one swap covers a whole
// batch, so batch ingest costs one views-slice copy per touched pod.
func (sh *streamShard) publishLocked(dirty []int, now time.Time) {
	prev := sh.snap.Load()
	next := &podViews{views: make([]*agentView, len(sh.decs))}
	if prev != nil {
		copy(next.views, prev.views)
	}
	for _, li := range dirty {
		d := &sh.decs[li]
		next.views[li] = &agentView{
			slot:      sh.base + li,
			stats:     d.stats,
			seq:       d.seq,
			epoch:     d.epoch,
			lastHeard: now,
		}
	}
	sh.snap.Store(next)
}

// frameCount indexes the per-frame ingest counters: the kind of every
// decoded frame, then the verdict of every frame that did not apply.
type frameCount int

const (
	countFull frameCount = iota
	countDelta
	countStale
	countResync
	countReject
	numFrameCounts
)

// frameCountNames are the verdict label values, in frameCount order.
var frameCountNames = [numFrameCounts]string{"full", "delta", "stale", "resync", "reject"}

// streamState is the controller's intake plane: the agent-state shards
// both transports feed, plus the wire counters of pushed frames.
type streamState struct {
	podSize int
	slots   map[string]int // configured agent URL → global slot
	names   sync.Map       // agent name → global slot, bound by full frames
	shards  []*streamShard

	// Cumulative wire counters of pushed frames (atomic: ingest is
	// concurrent); polled frames never touch them. The round loop
	// snapshots them and traces the per-round delta.
	frames, bytes atomic.Int64
	counts        [numFrameCounts]atomic.Int64
	prev          StreamStats // counter values already traced
}

func newStreamState(urls []string, podSize int) *streamState {
	s := &streamState{
		podSize: podSize,
		slots:   make(map[string]int, len(urls)),
	}
	for i, u := range urls {
		s.slots[u] = i
	}
	nShards := (len(urls) + podSize - 1) / podSize
	s.shards = make([]*streamShard, nShards)
	for p := range s.shards {
		lo, hi := p*podSize, (p+1)*podSize
		if hi > len(urls) {
			hi = len(urls)
		}
		s.shards[p] = &streamShard{base: lo, decs: make([]hbDecoder, hi-lo)}
	}
	return s
}

// shardOf returns the shard owning a global slot and the local index.
func (s *streamState) shardOf(slot int) (*streamShard, int) {
	return s.shards[slot/s.podSize], slot % s.podSize
}

// view returns the published view for a configured agent URL (nil before
// the agent's first applied frame). Lock-free: one atomic load.
func (s *streamState) view(url string) *agentView {
	slot, ok := s.slots[url]
	if !ok {
		return nil
	}
	sh, li := s.shardOf(slot)
	pv := sh.snap.Load()
	if pv == nil {
		return nil
	}
	return pv.views[li]
}

// route resolves a decoded frame to its global slot. Full frames bind by
// the advertised URL and (re)bind the agent name; deltas resolve by the
// name bound by an earlier full frame.
func (s *streamState) route(hb *Heartbeat) (int, hbVerdict) {
	if hb.Full {
		slot, ok := s.slots[hb.URL]
		if !ok {
			return 0, hbResync // not a configured agent; refuse to bind
		}
		s.names.Store(hb.Agent, slot)
		return slot, hbApplied
	}
	v, ok := s.names.Load(hb.Agent)
	if !ok {
		return 0, hbResync // unknown sender; a full frame will bind it
	}
	return v.(int), hbApplied
}

// summaryDelta snapshots the cumulative counters and returns the change
// since the previous call (the per-round trace payload).
func (s *streamState) summaryDelta() trace.HeartbeatSummary {
	cur, prev := s.stats(), s.prev
	s.prev = cur
	return trace.HeartbeatSummary{
		Frames:  int(cur.Frames - prev.Frames),
		Fulls:   int(cur.Fulls - prev.Fulls),
		Deltas:  int(cur.Deltas - prev.Deltas),
		Stale:   int(cur.Stale - prev.Stale),
		Resyncs: int(cur.Resyncs - prev.Resyncs),
		Rejects: int(cur.Rejects - prev.Rejects),
		Bytes:   cur.Bytes - prev.Bytes,
	}
}

// StreamStats is the controller's cumulative heartbeat-ingest counters
// over pushed frames (zero-valued under the polling transport, whose
// frames come from its own probes, not the wire).
type StreamStats struct {
	Frames  int64 `json:"frames"`
	Fulls   int64 `json:"fulls"`
	Deltas  int64 `json:"deltas"`
	Stale   int64 `json:"stale"`
	Resyncs int64 `json:"resyncs"`
	Rejects int64 `json:"rejects"`
	Bytes   int64 `json:"bytes"`
}

func (s *streamState) stats() StreamStats {
	return StreamStats{
		Frames:  s.frames.Load(),
		Fulls:   s.counts[countFull].Load(),
		Deltas:  s.counts[countDelta].Load(),
		Stale:   s.counts[countStale].Load(),
		Resyncs: s.counts[countResync].Load(),
		Rejects: s.counts[countReject].Load(),
		Bytes:   s.bytes.Load(),
	}
}

// StreamStats reports the cumulative ingest counters (zero when the
// controller polls).
func (c *Controller) StreamStats() StreamStats { return c.stream.stats() }

// count tallies one frame in its cumulative ingest counter and in the
// verdict-labelled obs counter.
func (c *Controller) count(k frameCount) {
	c.stream.counts[k].Add(1)
	if c.obs != nil {
		c.obs.verdicts[k].Inc()
	}
}

// IngestHeartbeat decodes and applies one pushed frame, returning the
// ack to send back: a one-frame IngestBatch. Safe for concurrent use;
// only the owning shard locks, and the round loop is never blocked.
func (c *Controller) IngestHeartbeat(frame []byte) HeartbeatAck {
	return c.IngestBatch([][]byte{frame})[0]
}

// decodeHeartbeatObs wraps DecodeHeartbeat with the decode-latency
// histogram; the timing branch costs nothing when obs is off.
func (c *Controller) decodeHeartbeatObs(frame []byte) (*Heartbeat, error) {
	if c.obs == nil {
		return DecodeHeartbeat(frame)
	}
	start := time.Now()
	hb, err := DecodeHeartbeat(frame)
	c.obs.decode.ObserveDuration(time.Since(start))
	return hb, err
}

// IngestBatch decodes a batch of pushed frames through the bounded
// worker pool, groups the survivors by shard, and applies each shard's
// frames under one lock acquisition with one snapshot swap. Acks are
// returned in frame order. A polling controller refuses every frame: its
// shards are fed by its own probes, and a pushed frame must not
// overwrite polled state.
func (c *Controller) IngestBatch(frames [][]byte) []HeartbeatAck {
	acks := make([]HeartbeatAck, len(frames))
	if c.cfg.Transport != TransportStream {
		for i := range acks {
			acks[i] = HeartbeatAck{Reject: true}
		}
		return acks
	}
	s := c.stream
	if len(frames) > maxHeartbeatBatch {
		frames = frames[:maxHeartbeatBatch]
	}
	// Decode fans out: full frames carry compressed JSON snapshots, the
	// one genuinely expensive decode. A single frame runs inline.
	decoded := make([]*Heartbeat, len(frames))
	_ = parallel.ForEach(len(frames), 0, func(i int) error {
		s.frames.Add(1)
		s.bytes.Add(int64(len(frames[i])))
		hb, err := c.decodeHeartbeatObs(frames[i])
		if err != nil {
			c.count(countReject)
			c.logf("heartbeat rejected: %v", err)
			acks[i] = HeartbeatAck{Reject: true}
			return nil
		}
		decoded[i] = hb
		return nil
	})
	// Route serially: binding order must be deterministic, and it is two
	// map operations per frame.
	work := make(map[int][]int) // pod → frame indices, in arrival order
	slots := make([]int, len(frames))
	for i, hb := range decoded {
		if hb == nil {
			continue
		}
		if hb.Full {
			c.count(countFull)
		} else {
			c.count(countDelta)
		}
		slot, verdict := s.route(hb)
		if verdict != hbApplied {
			c.count(countResync)
			acks[i] = HeartbeatAck{Agent: hb.Agent, Seq: hb.Seq, Resync: true}
			continue
		}
		slots[i] = slot
		work[slot/s.podSize] = append(work[slot/s.podSize], i)
	}
	if len(work) == 0 {
		return acks
	}
	pods := make([]int, 0, len(work))
	for p := range work {
		pods = append(pods, p)
	}
	now := c.now()
	// Shard application fans out: shards share nothing, and each touched
	// pod pays exactly one lock round-trip and one snapshot swap.
	_ = parallel.ForEach(len(pods), 0, func(k int) error {
		p := pods[k]
		sh := s.shards[p]
		var dirty []int
		sh.mu.Lock()
		for _, i := range work[p] {
			hb := decoded[i]
			li := slots[i] % s.podSize
			acks[i] = HeartbeatAck{Agent: hb.Agent, Seq: hb.Seq}
			switch sh.decs[li].apply(hb) {
			case hbApplied:
				dirty = append(dirty, li)
			case hbStale:
				c.count(countStale)
			case hbResync:
				c.count(countResync)
				acks[i] = HeartbeatAck{Agent: hb.Agent, Seq: resyncSeq(hb.Seq, sh.decs[li].seq), Resync: true}
			}
		}
		if len(dirty) > 0 {
			sh.publishLocked(dirty, now)
		}
		sh.mu.Unlock()
		return nil
	})
	return acks
}

// applyPolled is the polling transport's frame source: each successful
// probe reply is the agent's whole snapshot, so it applies to the
// agent's decoder as the full frame at the next seq — no encode, no
// decode — and publishes exactly as a pushed full frame would. Polled
// frames skip the wire counters.
func (s *streamState) applyPolled(results []probeResult, now time.Time) {
	work := make([][]int, len(s.shards)) // pod → result indices
	for i, r := range results {
		if r.err == nil {
			p := s.slots[r.agent.url] / s.podSize
			work[p] = append(work[p], i)
		}
	}
	for p, idx := range work {
		if len(idx) == 0 {
			continue
		}
		sh := s.shards[p]
		dirty := make([]int, 0, len(idx))
		sh.mu.Lock()
		for _, i := range idx {
			li := s.slots[results[i].agent.url] % s.podSize
			d := &sh.decs[li]
			d.apply(&Heartbeat{Full: true, Seq: d.seq + 1, Stats: results[i].stats})
			dirty = append(dirty, li)
		}
		sh.publishLocked(dirty, now)
		sh.mu.Unlock()
	}
}

// HeartbeatHandler serves POST /v1/heartbeat: one binary frame in, one
// JSON ack out. Rejected frames get 400 with the reject ack so a
// confused sender backs off to a full resync.
func (c *Controller) HeartbeatHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if c.cfg.Transport != TransportStream {
		writeError(w, http.StatusNotFound, "controller transport is %q, not %q", c.cfg.Transport, TransportStream)
		return
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, maxHeartbeatFrame+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading frame: %v", err)
		return
	}
	if len(frame) > maxHeartbeatFrame {
		writeError(w, http.StatusRequestEntityTooLarge, "frame exceeds %d bytes", maxHeartbeatFrame)
		return
	}
	ack := c.IngestHeartbeat(frame)
	status := http.StatusOK
	if ack.Reject {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, ack)
}

// maxHeartbeatFrame bounds one pushed frame: header plus URL plus the
// snapshot blob limit with varint slack.
const maxHeartbeatFrame = maxHeartbeatBlob + maxHeartbeatName + maxHeartbeatURL + 64

// observeLocked is the round head under either transport and the only
// writer of liveness: fold each agent's latest published view into the
// controller's agent state. One atomic snapshot load per pod, zero
// locks, zero network. An agent whose view has not advanced since the
// last round has missed a heartbeat — a lost push or a failed probe
// alike; DeadAfter consecutive misses declare it dead, and the next
// applied frame after that is a rejoin.
func (c *Controller) observeLocked(now time.Time) (membershipChanged bool) {
	s := c.stream
	// Per-pod staleness watermarks: the max of (now − lastHeard) over each
	// pod's agents, observed against the staleness SLO per agent.
	var podMax []float64
	if c.obs != nil {
		podMax = make([]float64, len(s.shards))
	}
	for _, a := range c.agents {
		view := s.view(a.url)
		if c.obs != nil && view != nil {
			stale := now.Sub(view.lastHeard)
			c.obs.staleSLO.Observe(stale)
			if p := s.slots[a.url] / s.podSize; stale.Seconds() > podMax[p] {
				podMax[p] = stale.Seconds()
			}
		}
		if view == nil || view.seq <= a.seq {
			// The first miss names the cause and later misses keep it: a
			// silent sender's view cannot move, and a polled agent keeps
			// the probe error backoffLocked recorded.
			if a.lastErr == "" {
				if view == nil {
					a.lastErr = "no heartbeat received"
				} else {
					a.lastErr = fmt.Sprintf("no heartbeat since seq %d", view.seq)
				}
			}
			a.misses++
			if a.alive && a.misses >= c.cfg.DeadAfter {
				a.alive = false
				c.deaths++
				membershipChanged = true
				c.logf("agent %s (%s) dead after %d missed heartbeats: %s", a.name, a.url, a.misses, a.lastErr)
			}
			continue
		}
		if !a.alive || !a.everSeen {
			membershipChanged = true
			if a.everSeen {
				c.rejoins++
				c.logf("agent %s (%s) rejoined", view.stats.Agent, a.url)
			} else {
				c.logf("agent %s (%s) discovered, lc=%s", view.stats.Agent, a.url, view.stats.LC)
			}
		}
		a.alive = true
		a.everSeen = true
		a.misses = 0
		a.lastErr = ""
		a.name = view.stats.Agent
		a.lc = view.stats.LC
		a.last = view.stats
		a.seq = view.seq
	}
	if c.obs != nil {
		for p, v := range podMax {
			c.obs.podStale[p].Set(v)
		}
	}
	if d := s.summaryDelta(); d.Frames > 0 || d.Resyncs > 0 || d.Rejects > 0 {
		c.tracer.Heartbeat(now, d)
	}
	return membershipChanged
}
