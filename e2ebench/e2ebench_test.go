package main

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pocolo/internal/controlplane"
)

// smallWorkloads are scaled-down copies of the benchmark's workloads:
// the same schedules and controller flags on fleets small enough for a
// unit test.
func smallWorkloads() []*workloadSpec {
	churn := *workloads[1]
	churn.name, churn.agents = "churn-64", 64
	churn.flags.podSize = 16
	shipped := *workloads[2]
	shipped.name, shipped.agents = "shipped-8", 8
	return []*workloadSpec{&churn, &shipped}
}

// deterministic is what two runs with one seed must agree on exactly.
type deterministic struct {
	Log                    []string
	DecisionRounds         []int
	Ratios                 []float64
	Solves, Pushes, Frames int
	Failed                 int
}

func runSmall(t *testing.T, w *workloadSpec, seed int64, hbs int, traced bool) deterministic {
	t.Helper()
	ctx := context.Background()
	f, _, err := setUp(ctx, w, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p, err := drive(ctx, f, seed, hbs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%s seed %d: %d failed operations: %v\n%v", w.name, seed, p.failed, p.failures, p.log)
	}
	if len(p.decisionMs) == 0 {
		t.Fatalf("%s seed %d: no decisions", w.name, seed)
	}
	return deterministic{p.log, p.decisionRounds, p.ratios, p.solves, p.pushes, p.fullFrames, p.failed}
}

func TestSameSeedSameDecisions(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a := runSmall(t, w, 7, 60, false)
			b := runSmall(t, w, 7, 60, false)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs with seed 7 differ:\n%+v\n%+v", a, b)
			}
			if w.flags.transport == controlplane.TransportStream && a.Frames == 0 {
				t.Fatalf("stream churn run sent no full frames")
			}
		})
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	for _, w := range smallWorkloads() {
		a := w.schedule(rand.New(rand.NewSource(1)), w, 60)
		b := w.schedule(rand.New(rand.NewSource(2)), w, 60)
		if len(a) == 0 || reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 give the same schedule (%d events)", w.name, len(a))
		}
	}
}

// TestTracedRunChecksInvariants runs the traced path — invariant
// harness on every agent tick, phase replays, span dump — and checks it
// decides exactly as the untraced run does.
func TestTracedRunChecksInvariants(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			plain := runSmall(t, w, 3, 60, false)
			traced := runSmall(t, w, 3, 60, true)
			if !reflect.DeepEqual(plain.Log, traced.Log) {
				t.Fatalf("traced run decided differently:\n%v\n%v", plain.Log, traced.Log)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}
