package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"pocolo/internal/controlplane"
)

// loopback is the fleet's in-process HTTP fabric, modelled on the fault
// campaign's: requests go straight to the target agent's handler, no
// socket is opened, and a crashed host refuses every request. It times
// the controller's pushes (POST /v1/assign, /v1/cap) and poll probes
// (GET /v1/stats) at the transport and counts push outcomes. It takes no
// lock, so the controller's push workers never queue on the benchmark.
type loopback struct {
	// hosts is filled before the controller starts and only read after.
	hosts map[string]*loopHost

	// Per-round accounting, reset by beginRound.
	pushes, pushFailed, probesRefused atomic.Int64
	kinds                             [numRPCKinds]rpcCounter
}

type loopHost struct {
	handler http.Handler
	down    atomic.Bool
}

// rpcKind classifies a controller → agent request.
type rpcKind int

const (
	rpcCap rpcKind = iota
	rpcAssign
	rpcProbe
	numRPCKinds
)

// rpcStats is one request kind's work within a round: count, summed
// latency, bytes returned, and the interval the requests covered.
type rpcStats struct {
	n          int
	total      time.Duration
	bytes      int
	first, end time.Time
}

// rpcCounter accumulates rpcStats from concurrent requests.
type rpcCounter struct {
	n, total, bytes atomic.Int64
	first, end      atomic.Int64 // UnixNano; first is 0 until a request
}

func (c *rpcCounter) observe(start, end time.Time, bytes int) {
	c.n.Add(1)
	c.total.Add(int64(end.Sub(start)))
	c.bytes.Add(int64(bytes))
	s, e := start.UnixNano(), end.UnixNano()
	for f := c.first.Load(); f == 0 || s < f; f = c.first.Load() {
		if c.first.CompareAndSwap(f, s) {
			break
		}
	}
	for x := c.end.Load(); e > x; x = c.end.Load() {
		if c.end.CompareAndSwap(x, e) {
			break
		}
	}
}

func (c *rpcCounter) stats() rpcStats {
	return rpcStats{
		n:     int(c.n.Load()),
		total: time.Duration(c.total.Load()),
		bytes: int(c.bytes.Load()),
		first: time.Unix(0, c.first.Load()),
		end:   time.Unix(0, c.end.Load()),
	}
}

func (c *rpcCounter) reset() {
	c.n.Store(0)
	c.total.Store(0)
	c.bytes.Store(0)
	c.first.Store(0)
	c.end.Store(0)
}

func newLoopback() *loopback { return &loopback{hosts: make(map[string]*loopHost)} }

func (l *loopback) add(host string, h http.Handler) { l.hosts[host] = &loopHost{handler: h} }

func (l *loopback) setDown(host string, down bool) { l.hosts[host].down.Store(down) }

func (l *loopback) client() *http.Client { return &http.Client{Transport: l} }

func (l *loopback) beginRound() {
	l.pushes.Store(0)
	l.pushFailed.Store(0)
	l.probesRefused.Store(0)
	for k := range l.kinds {
		l.kinds[k].reset()
	}
}

// roundPushes reports the round's pushes and those that failed on a
// running agent; pushes the injected crash refused are not failures.
func (l *loopback) roundPushes() (pushes, failed int) {
	return int(l.pushes.Load()), int(l.pushFailed.Load())
}

// roundProbesRefused reports the round's poll probes a crashed host
// refused.
func (l *loopback) roundProbesRefused() int { return int(l.probesRefused.Load()) }

// endRound records the round's push fan-out and poll probes as spans
// covering the first request's start to the last one's end.
func (l *loopback) endRound(tr *tracer) {
	if tr == nil {
		return
	}
	var kinds [numRPCKinds]rpcStats
	for k := range l.kinds {
		kinds[k] = l.kinds[k].stats()
		if kinds[k].n > 0 {
			tr.rpc(rpcKind(k), kinds[k])
		}
	}
	tr.rpcRound(kinds)
}

// RoundTrip implements http.RoundTripper.
func (l *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := rpcProbe
	push := false
	switch req.URL.Path {
	case controlplane.RouteCap:
		kind, push = rpcCap, true
	case controlplane.RouteAssign:
		kind, push = rpcAssign, true
	}
	h := l.hosts[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("loopback: no route to %s", req.URL.Host)
	}
	down := h.down.Load()

	start := time.Now()
	var resp *http.Response
	var err error
	if down {
		err = fmt.Errorf("loopback: connect %s: connection refused", req.URL.Host)
	} else {
		rec := &recorder{header: make(http.Header), status: http.StatusOK}
		h.handler.ServeHTTP(rec, req)
		resp = &http.Response{
			StatusCode:    rec.status,
			Status:        http.StatusText(rec.status),
			Header:        rec.header,
			Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
			ContentLength: int64(rec.body.Len()),
			Request:       req,
		}
	}
	end := time.Now()

	n := 0
	if resp != nil {
		n = int(resp.ContentLength)
	}
	l.kinds[kind].observe(start, end, n)
	if kind == rpcProbe && down {
		l.probesRefused.Add(1)
	}
	if push {
		l.pushes.Add(1)
		if !down && resp.StatusCode != http.StatusOK {
			l.pushFailed.Add(1)
		}
	}
	return resp, err
}

// recorder is a minimal in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(status int)      { r.status = status }
