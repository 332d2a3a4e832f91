package controlplane

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pocolo/internal/trace"
)

// This file renders agent and controller state in Prometheus text
// exposition format (version 0.0.4). The dependency-free writer covers
// the subset the control plane needs: HELP/TYPE headers, gauges,
// counters, and escaped label values.

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promWriter accumulates exposition lines.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// metric emits the HELP/TYPE header for a metric.
func (p *promWriter) metric(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line. Labels are "k=v" pairs already formatted;
// pass nil for an unlabelled sample.
func (p *promWriter) sample(name string, labels []string, value float64) {
	if len(labels) == 0 {
		p.printf("%s %g\n", name, value)
		return
	}
	p.printf("%s{%s} %g\n", name, strings.Join(labels, ","), value)
}

// label formats one k="v" pair. promEscape is the whole escaping: the
// value is quoted, not re-escaped.
func label(k, v string) string { return k + `="` + promEscape(v) + `"` }

// writeAgentMetrics renders one agent snapshot.
func writeAgentMetrics(w io.Writer, s StatsResponse) error {
	p := &promWriter{w: w}
	host := []string{label("agent", s.Agent), label("lc", s.LC)}

	p.metric("pocolo_up", "gauge", "Whether the agent is serving (always 1 when scrapable).")
	p.sample("pocolo_up", host, 1)

	p.metric("pocolo_lc_offered_load_rps", "gauge", "Offered load of the latency-critical primary, requests/s.")
	p.sample("pocolo_lc_offered_load_rps", host, s.OfferedLoad)

	p.metric("pocolo_lc_slack_ratio", "gauge", "Relative p99 latency slack of the primary; negative means SLO violation.")
	p.sample("pocolo_lc_slack_ratio", host, s.Slack)

	p.metric("pocolo_lc_p99_ms", "gauge", "Observed p99 latency of the primary, milliseconds.")
	p.sample("pocolo_lc_p99_ms", host, s.P99Ms)

	p.metric("pocolo_power_watts", "gauge", "Latest power-meter reading, watts.")
	p.sample("pocolo_power_watts", host, s.PowerW)

	p.metric("pocolo_power_cap_watts", "gauge", "Power budget the capper enforces, watts.")
	p.sample("pocolo_power_cap_watts", host, s.CapW)

	p.metric("pocolo_be_throughput_ops", "gauge", "Instantaneous best-effort throughput, ops/s.")
	p.sample("pocolo_be_throughput_ops", host, s.BEThroughput)

	p.metric("pocolo_be_assigned", "gauge", "1 for the best-effort app currently placed on this server.")
	if s.AssignedBE != "" {
		p.sample("pocolo_be_assigned", append(append([]string{}, host...), label("be", s.AssignedBE)), 1)
	}

	p.metric("pocolo_lc_ops_total", "counter", "Latency-critical requests served.")
	p.sample("pocolo_lc_ops_total", host, s.LCOps)

	p.metric("pocolo_be_ops_total", "counter", "Best-effort operations completed.")
	p.sample("pocolo_be_ops_total", host, s.BEOps)

	p.metric("pocolo_be_ops_by_total", "counter", "Best-effort operations completed, by app.")
	for _, be := range sortedKeys(s.BEOpsBy) {
		p.sample("pocolo_be_ops_by_total", append(append([]string{}, host...), label("be", be)), s.BEOpsBy[be])
	}

	p.metric("pocolo_control_ticks_total", "counter", "Server-manager control loop iterations.")
	p.sample("pocolo_control_ticks_total", host, float64(s.ControlTicks))

	p.metric("pocolo_cap_throttles_total", "counter", "Power-capper throttle actions.")
	p.sample("pocolo_cap_throttles_total", host, float64(s.CapThrottles))

	p.metric("pocolo_cap_restores_total", "counter", "Power-capper restore actions.")
	p.sample("pocolo_cap_restores_total", host, float64(s.CapRestores))

	p.metric("pocolo_be_throttles_total", "counter", "Capper interventions that actually moved a best-effort frequency or duty knob down.")
	p.sample("pocolo_be_throttles_total", host, float64(s.BEThrottles))

	p.metric("pocolo_be_restores_total", "counter", "Capper interventions that actually moved a best-effort frequency or duty knob up.")
	p.sample("pocolo_be_restores_total", host, float64(s.BERestores))

	p.metric("pocolo_planner_hits_total", "counter", "Allocation lookups served by the precomputed planner (cold cells).")
	p.sample("pocolo_planner_hits_total", host, float64(s.PlannerHits))

	p.metric("pocolo_planner_warm_total", "counter", "Allocation lookups served by warm-start cell reuse.")
	p.sample("pocolo_planner_warm_total", host, float64(s.PlannerWarm))

	p.metric("pocolo_planner_fallbacks_total", "counter", "Allocation lookups that fell back to the exact grid search.")
	p.sample("pocolo_planner_fallbacks_total", host, float64(s.PlannerFallbacks))

	p.metric("pocolo_planner_mode", "gauge", "Info metric: 1 for the allocation path the manager is configured with.")
	mode := "exact"
	if s.PlannerOn {
		mode = "planner"
	}
	p.sample("pocolo_planner_mode", append(append([]string{}, host...), label("mode", mode)), 1)

	p.metric("pocolo_sim_seconds_total", "counter", "Simulated seconds advanced by the agent.")
	p.sample("pocolo_sim_seconds_total", host, s.SimSec)

	return p.err
}

// writeControllerMetrics renders a controller status snapshot.
func writeControllerMetrics(w io.Writer, st Status) error {
	p := &promWriter{w: w}

	p.metric("pocolo_controller_agents", "gauge", "Configured agents by liveness.")
	alive := 0
	for _, a := range st.Agents {
		if a.Alive {
			alive++
		}
	}
	p.sample("pocolo_controller_agents", []string{label("state", "alive")}, float64(alive))
	p.sample("pocolo_controller_agents", []string{label("state", "dead")}, float64(len(st.Agents)-alive))

	p.metric("pocolo_controller_agent_up", "gauge", "Per-agent liveness as seen by the controller.")
	for _, a := range st.Agents {
		v := 0.0
		if a.Alive {
			v = 1
		}
		p.sample("pocolo_controller_agent_up", []string{label("agent", a.Name), label("url", a.URL)}, v)
	}

	p.metric("pocolo_controller_degraded", "gauge", "1 while serving the last-known-good placement instead of a fresh solve.")
	v := 0.0
	if st.Degraded {
		v = 1
	}
	p.sample("pocolo_controller_degraded", nil, v)

	p.metric("pocolo_controller_placement", "gauge", "Current placement: best-effort app to agent.")
	for _, be := range sortedKeys(st.Placement) {
		p.sample("pocolo_controller_placement", []string{label("be", be), label("agent", st.Placement[be])}, 1)
	}

	p.metric("pocolo_controller_unplaced_be", "gauge", "Best-effort apps with no server to run on.")
	p.sample("pocolo_controller_unplaced_be", nil, float64(len(st.Unplaced)))

	p.metric("pocolo_controller_rounds_total", "counter", "Heartbeat rounds completed.")
	p.sample("pocolo_controller_rounds_total", nil, float64(st.Rounds))

	p.metric("pocolo_controller_solves_total", "counter", "Placement re-solves performed.")
	p.sample("pocolo_controller_solves_total", nil, float64(st.Solves))

	p.metric("pocolo_controller_deaths_total", "counter", "Agents declared dead.")
	p.sample("pocolo_controller_deaths_total", nil, float64(st.Deaths))

	p.metric("pocolo_controller_rejoins_total", "counter", "Dead agents that came back.")
	p.sample("pocolo_controller_rejoins_total", nil, float64(st.Rejoins))

	return p.err
}

// writeStreamMetrics renders the streaming transport's heartbeat-ingest
// counters. A polling controller writes nothing, so the poll exposition
// is byte-identical to what it was before streaming existed.
func writeStreamMetrics(w io.Writer, s StreamStats) error {
	if s.Frames == 0 && s.Rejects == 0 {
		return nil
	}
	p := &promWriter{w: w}

	p.metric("pocolo_controller_heartbeat_frames_total", "counter", "Heartbeat frames ingested, by frame type.")
	p.sample("pocolo_controller_heartbeat_frames_total", []string{label("type", "full")}, float64(s.Fulls))
	p.sample("pocolo_controller_heartbeat_frames_total", []string{label("type", "delta")}, float64(s.Deltas))

	p.metric("pocolo_controller_heartbeat_stale_total", "counter", "Duplicate or reordered frames ignored.")
	p.sample("pocolo_controller_heartbeat_stale_total", nil, float64(s.Stale))

	p.metric("pocolo_controller_heartbeat_resyncs_total", "counter", "Frames answered with a resync demand.")
	p.sample("pocolo_controller_heartbeat_resyncs_total", nil, float64(s.Resyncs))

	p.metric("pocolo_controller_heartbeat_rejects_total", "counter", "Malformed frames rejected.")
	p.sample("pocolo_controller_heartbeat_rejects_total", nil, float64(s.Rejects))

	p.metric("pocolo_controller_heartbeat_bytes_total", "counter", "Heartbeat wire bytes ingested.")
	p.sample("pocolo_controller_heartbeat_bytes_total", nil, float64(s.Bytes))

	return p.err
}

// writeBudgetMetrics renders the controller's budget-tree state. A nil
// status (no budget tree configured) writes nothing, so unbudgeted
// controllers expose no empty budget families.
func writeBudgetMetrics(w io.Writer, b *BudgetStatus) error {
	if b == nil {
		return nil
	}
	p := &promWriter{w: w}

	p.metric("pocolo_budget_node_watts", "gauge", "Current power budget of each tree node, watts.")
	for _, n := range sortedKeys(b.NodeBudgets) {
		p.sample("pocolo_budget_node_watts", []string{label("node", n)}, b.NodeBudgets[n])
	}

	p.metric("pocolo_budget_share_watts", "gauge", "Per-agent power cap installed by the last rebalance, watts.")
	for _, n := range sortedKeys(b.Shares) {
		p.sample("pocolo_budget_share_watts", []string{label("agent", n)}, b.Shares[n])
	}

	p.metric("pocolo_budget_rebalances_total", "counter", "Budget divisions installed across the fleet.")
	p.sample("pocolo_budget_rebalances_total", nil, float64(b.Rebalances))

	p.metric("pocolo_budget_brownouts_total", "counter", "Runtime budget cuts applied to the tree.")
	p.sample("pocolo_budget_brownouts_total", nil, float64(b.Brownouts))

	return p.err
}

// histogram emits the Prometheus histogram sample family for one
// snapshot: cumulative _bucket samples with le labels (including +Inf),
// then _sum and _count.
func (p *promWriter) histogram(name string, labels []string, s trace.HistogramSnapshot) {
	cum := s.Cumulative()
	for i, b := range s.Bounds {
		le := label("le", strconv.FormatFloat(b, 'g', -1, 64))
		p.sample(name+"_bucket", append(append([]string{}, labels...), le), float64(cum[i]))
	}
	p.sample(name+"_bucket", append(append([]string{}, labels...), label("le", "+Inf")), float64(s.Count))
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(s.Count))
}

// writeTraceMetrics renders a tracer's phase-duration and slack
// histograms. Families with no samples yet are omitted entirely (an empty
// histogram has no bucket layout to expose). A nil tracer writes nothing.
func writeTraceMetrics(w io.Writer, agent, lc string, tr *trace.Tracer) error {
	if tr == nil {
		return nil
	}
	p := &promWriter{w: w}
	host := []string{label("agent", agent)}
	if lc != "" {
		host = append(host, label("lc", lc))
	}
	spans := tr.SpanDurations()
	if len(spans) > 0 {
		p.metric("pocolo_tick_duration_seconds", "histogram", "Wall-clock duration of control-plane phases, by phase span.")
		for _, phase := range sortedKeys(spans) {
			if s := spans[phase]; s.Count > 0 {
				p.histogram("pocolo_tick_duration_seconds", append(append([]string{}, host...), label("phase", phase)), s)
			}
		}
	}
	if slack := tr.SlackDistribution(); slack.Count > 0 {
		p.metric("pocolo_lc_slack_ratio_distribution", "histogram", "Distribution of the primary's per-control-tick latency slack.")
		p.histogram("pocolo_lc_slack_ratio_distribution", host, slack)
	}
	return p.err
}

// sortedKeys returns a map's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
