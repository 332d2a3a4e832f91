// Command e2ebench is the repository's end-to-end benchmark: it builds an
// in-process fleet of controlplane agents and one controller configured
// as cmd/pocolo-controller would be from its flags, drives it in
// lockstep heartbeats, injects a seeded schedule of host events, and
// measures decision latency — from a change on a host to the new cap or
// placement being held by every affected agent. See README.md for the
// workloads and metric definitions.
//
// Usage:
//
//	e2ebench --workload steady-1k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the span dump (Chrome trace-event JSON) to --spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: steady-1k, churn-1k or shipped-32")
	seed := flag.Int64("seed", 1, "seed of the event schedule and the agents' noise streams")
	seconds := flag.Float64("seconds", 20, "nominal length of the timed window in seconds (sets its heartbeat count)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "span dump path for --trace 1 (default .bench_build/spans-<workload>-<seed>.json)")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *traced, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// minDecisions is the fewest decisions an untraced run must produce, so
// that decision_ms_p90 has at least ten samples beyond it.
const minDecisions = 100

func run(out io.Writer, name string, seed int64, seconds float64, traced int, spansPath string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	ctx := context.Background()
	calib := calibrate()
	meta := runMeta(w, seed, seconds, calib)
	hbs := windowHeartbeats(w, seconds)
	if traced == 0 {
		res, err := untracedRun(ctx, w, seed, hbs)
		if err != nil {
			return err
		}
		meta["heartbeats"] = res.p.heartbeats
		meta["gc_cycles"] = res.gc.cycles
		meta["setup_s_each"] = res.setups
		meta["host.calib_ms_end"] = calibrate()
		correct := res.p.failed == 0 && len(res.p.decisionMs) >= minDecisions
		if len(res.p.decisionMs) < minDecisions {
			fmt.Fprintf(out, "only %d decisions (< %d): raise --seconds\n", len(res.p.decisionMs), minDecisions)
		}
		printReport(out, w, meta, res.p, res.metrics, nil)
		return printResult(out, correct, res.p.attempted, res.p.failed, res.metrics)
	}

	if spansPath == "" {
		spansPath = fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, seed)
	}
	res, err := tracedRun(ctx, w, seed, hbs, calib)
	if err != nil {
		return err
	}
	meta["heartbeats"] = res.traced.heartbeats
	meta["gc_cycles"] = res.gc.cycles
	meta["host.calib_ms_end"] = calibrate()
	if err := res.tr.writeChrome(spansPath, meta); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	meta["spans"] = spansPath
	printReport(out, w, meta, res.traced, res.metrics, res.overhead)
	attempted := res.untraced.attempted + res.traced.attempted
	failed := res.untraced.failed + res.traced.failed
	return printResult(out, failed == 0, attempted, failed, res.metrics)
}

// untracedResult is a --trace 0 run.
type untracedResult struct {
	p       *pass
	setups  []float64
	gc      gcStats
	metrics []metric
}

// untracedRun measures one timed window and sets the workload up
// w.setups times: half before the window (the last of those fleets is
// the one measured) and half after it, so the set-up samples span the
// run rather than one moment of the host. setup_s is their median.
func untracedRun(ctx context.Context, w *workloadSpec, seed int64, hbs int) (*untracedResult, error) {
	res := &untracedResult{}
	// Only the last fleet is kept; each earlier one is garbage before the
	// next set-up starts.
	setups := func(n int) (*fleet, error) {
		var last *fleet
		for k := 0; k < n; k++ {
			f, d, err := setUp(ctx, w, seed, false)
			if err != nil {
				return nil, err
			}
			res.setups = append(res.setups, d.Seconds())
			if k == n-1 {
				last = f
			}
		}
		return last, nil
	}
	f, err := setups(max(w.setups/2, 1))
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	if res.p, err = drive(ctx, f, seed, hbs, nil); err != nil {
		return nil, err
	}
	res.gc = readGC().since(gc0)
	if _, err := setups(w.setups - max(w.setups/2, 1)); err != nil {
		return nil, err
	}
	res.metrics = endToEnd(res.p, median(res.setups))
	return res, nil
}

// tracedResult is a --trace 1 run: an untraced and a traced window of a
// quarter of the run's length each, on fleets set up alike from the
// same seed, so their difference is the tracing overhead. (The traced
// window also checks every invariant on every agent tick, which makes
// its agents several times slower; a quarter keeps the run short.)
type tracedResult struct {
	untraced, traced *pass
	tr               *tracer
	gc               gcStats
	metrics          []metric
	overhead         [][3]float64 // per end-to-end metric: untraced, traced, difference
}

func tracedRun(ctx context.Context, w *workloadSpec, seed int64, hbs int, calib float64) (*tracedResult, error) {
	part := max(hbs/4, 4*ackBound)
	res := &tracedResult{}
	plain, setupA, err := setUp(ctx, w, seed, false)
	if err != nil {
		return nil, err
	}
	if res.untraced, err = drive(ctx, plain, seed, part, nil); err != nil {
		return nil, err
	}
	checked, setupB, err := setUp(ctx, w, seed, true)
	if err != nil {
		return nil, err
	}
	res.tr = newTracer()
	gc0 := readGC()
	if res.traced, err = drive(ctx, checked, seed, part, res.tr); err != nil {
		return nil, err
	}
	res.gc = readGC().since(gc0)

	base := endToEnd(res.untraced, setupA.Seconds())
	withTrace := endToEnd(res.traced, setupB.Seconds())
	for i := range base {
		res.overhead = append(res.overhead, [3]float64{base[i].value, withTrace[i].value, withTrace[i].value - base[i].value})
	}
	ctrl := func(p *pass) float64 { return p.ctrlMs / float64(p.heartbeats) }
	perHB := func(p *pass) float64 { return ms(p.wall) / float64(p.heartbeats) }
	res.metrics = append(append(res.traced.layers.metrics, res.traced.layers.self...),
		metric{"runtime.gc_cycles", "count", float64(res.gc.cycles)},
		metric{"runtime.gc_cpu_frac", "ratio", res.gc.cpuFrac},
		metric{"host.calib_ms", "ms", calib},
		metric{"trace.overhead_ctrl_ms", "ms", ctrl(res.traced) - ctrl(res.untraced)},
		metric{"trace.overhead_heartbeat_ms", "ms", perHB(res.traced) - perHB(res.untraced)},
	)
	return res, nil
}

// endToEnd derives the end-to-end metrics of a pass.
func endToEnd(p *pass, setupS float64) []metric {
	ok := 1.0
	if p.attempted > 0 {
		ok = 1 - float64(p.failed)/float64(p.attempted)
	}
	rounds := 0.0
	for _, r := range p.decisionRounds {
		rounds += float64(r)
	}
	if len(p.decisionRounds) > 0 {
		rounds /= float64(len(p.decisionRounds))
	}
	return []metric{
		{"setup_s", "s", setupS},
		{"decision_ms_p50", "ms", percentile(p.decisionMs, 50)},
		{"decision_ms_p90", "ms", percentile(p.decisionMs, 90)},
		{"decision_rounds_mean", "rounds", rounds},
		{"round_ms_p50", "ms", percentile(p.roundMs, 50)},
		{"round_ms_p95", "ms", percentile(p.roundMs, 95)},
		{"resolve_ms_p50", "ms", percentile(p.resolveMs, 50)},
		{"read_ms_p50", "ms", percentile(p.readMs, 50)},
		{"read_ms_p90", "ms", percentile(p.readMs, 90)},
		{"sim_host_s_per_s", "host-s/s", p.hostSec / p.wall.Seconds()},
		{"placement_value_ratio", "ratio", mean(p.ratios)},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"ok_ops_ratio", "ratio", ok},
	}
}

// percentile interpolates linearly between closest ranks (q in
// [0, 100]); it is 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xss ...[]float64) float64 {
	t := 0.0
	for _, xs := range xss {
		for _, x := range xs {
			t += x
		}
	}
	return t
}

// peakRSSMB is the process's peak resident set size (getrusage ru_maxrss,
// the kernel's VmHWM, in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate times a fixed, allocation-free compute loop (median of five)
// so results from different hosts or runs can be compared against the
// machine's speed at the time.
func calibrate() float64 {
	times := make([]float64, 5)
	for k := range times {
		start := time.Now()
		x := 1.0
		for i := 0; i < 4_000_000; i++ {
			x = x*1.0000001 + 1e-9
			if x > 2 {
				x -= 1
			}
		}
		calibSink += x
		times[k] = ms(time.Since(start))
	}
	return median(times)
}

// gcStats is garbage-collector work over an interval.
type gcStats struct {
	cycles  uint32
	cpuFrac float64
	gcCPU   float64
	allCPU  float64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := cpuSeconds()
	return gcStats{cycles: ms.NumGC, gcCPU: gc, allCPU: all}
}

func (g gcStats) since(before gcStats) gcStats {
	d := gcStats{cycles: g.cycles - before.cycles, gcCPU: g.gcCPU - before.gcCPU, allCPU: g.allCPU - before.allCPU}
	if d.allCPU > 0 {
		d.cpuFrac = d.gcCPU / d.allCPU
	}
	return d
}

// runMeta is the run's metadata, printed with every result.
func runMeta(w *workloadSpec, seed int64, seconds, calib float64) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"seconds":       seconds,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"host.calib_ms": calib,
	}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable report: metadata, every metric
// by name and unit, failures, the decision mix and, for traced runs,
// the tracing overhead per end-to-end metric.
func printReport(out io.Writer, w *workloadSpec, meta map[string]any, p *pass, ms []metric, overhead [][3]float64) {
	raw, _ := json.Marshal(meta)
	fmt.Fprintf(out, "e2ebench %s: %s\nmeta %s\n", w.name, w.why, raw)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "decisions %d, heartbeats %d (%d re-solved, %d with a refused probe), pushes %d, full frames %d\n",
		len(p.decisionMs), p.heartbeats, p.solves, p.heartbeats-len(p.roundMs)-len(p.resolveMs), p.pushes, p.fullFrames)
	fmt.Fprintf(out, "controller time %.4g ms per heartbeat, of which %.4g ms is its share of garbage collection\n",
		p.ctrlMs/float64(p.heartbeats), p.gcMs/float64(p.heartbeats))
	for _, line := range decisionMix(p) {
		fmt.Fprintln(out, "  "+line)
	}
	if p.layers != nil && len(p.layers.crossCheck) > 0 {
		fmt.Fprintln(out, "cross-check: the controller's obs histograms beside the benchmark's spans")
		for _, line := range p.layers.crossCheck {
			fmt.Fprintln(out, "  "+line)
		}
	}
	classes := make([]string, 0, len(p.failures))
	for c := range p.failures {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "FAILED %s: %d\n", c, p.failures[c])
	}
	for _, line := range p.log {
		if strings.Contains(line, "NOT") || strings.Contains(line, "violation") || strings.Contains(line, "placement check") {
			fmt.Fprintln(out, "  "+line)
		}
	}
	if overhead != nil {
		fmt.Fprintln(out, "tracing overhead (quarter-length windows, same seed): untraced, traced, traced-untraced")
		for i, m := range endToEnd(p, 0) {
			fmt.Fprintf(out, "  %-24s %12.6g %12.6g %+12.6g\n", m.name, overhead[i][0], overhead[i][1], overhead[i][2])
		}
	}
}

// decisionMix summarizes decisions by event kind: count, mean rounds,
// median milliseconds.
func decisionMix(p *pass) []string {
	var out []string
	for k := evBrownout; k <= evHeal; k++ {
		var msk []float64
		rounds := 0
		for i, kind := range p.decisionKinds {
			if kind == k {
				msk = append(msk, p.decisionMs[i])
				rounds += p.decisionRounds[i]
			}
		}
		if len(msk) > 0 {
			out = append(out, fmt.Sprintf("%-10s %4d decisions, %.2f rounds mean, %8.3f ms median",
				k, len(msk), float64(rounds)/float64(len(msk)), median(msk)))
		}
	}
	return out
}

// printResult writes the final JSON line.
func printResult(out io.Writer, correct bool, attempted, failed int, ms []metric) error {
	m := make(map[string]map[string]any, len(ms))
	for _, x := range ms {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	raw, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(raw))
	return err
}
