package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"supercayley/internal/core"
)

// reqIDHeader carries the client's request id to the handler span in
// the traced run.
const reqIDHeader = "X-Bench-Req"

// Span kinds, one per layer boundary the benchmark wraps; each is the
// parent of the next.
const (
	spanClient uint8 = iota
	spanHandler
	spanRouteMany
)

var spanNames = [...]string{"client", "handler", "route_many"}

// span is one timed call at a layer boundary.  Spans of one request
// share req; a route_many span serves a whole batch and has req 0.  It
// holds no pointers, so the span buffer costs the collector nothing.
type span struct {
	kind       uint8
	start, end int64 // ns since the tracer's epoch
	req        int64
	pairs      int32
}

// tracer keeps spans in memory, up to a fixed count, and running sums
// for the busy fractions.  It records only while on.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	spans []span
	n     atomic.Int64
	ids   atomic.Int64

	routeNs, routeCalls, routePairs atomic.Int64
	handlerNs, handlerCalls         atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// sums is a snapshot of the running sums, for per-phase deltas.
type sums struct{ routeNs, routeCalls, routePairs, handlerNs, handlerCalls int64 }

func (t *tracer) sums() sums {
	return sums{t.routeNs.Load(), t.routeCalls.Load(), t.routePairs.Load(), t.handlerNs.Load(), t.handlerCalls.Load()}
}

// tracedRouter decorates the router the service flushes into with a
// route_many span per RouteManyInto call.
type tracedRouter struct {
	core.Router
	t *tracer
}

func (tr *tracedRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	if !tr.t.on.Load() {
		return tr.Router.RouteManyInto(out, srcs, dsts)
	}
	t0 := tr.t.now()
	err := tr.Router.RouteManyInto(out, srcs, dsts)
	t1 := tr.t.now()
	tr.t.routeNs.Add(t1 - t0)
	tr.t.routeCalls.Add(1)
	tr.t.routePairs.Add(int64(len(srcs)))
	tr.t.record(span{kind: spanRouteMany, start: t0, end: t1, pairs: int32(len(srcs))})
	return err
}

// handler wraps the service mux with a handler span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t0 := t.now()
		next.ServeHTTP(w, r)
		t1 := t.now()
		id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // absent id: span without a request
		t.handlerNs.Add(t1 - t0)
		t.handlerCalls.Add(1)
		t.record(span{kind: spanHandler, start: t0, end: t1, req: id})
	})
}

// waitHandlers waits until the handler spans of n requests are counted:
// the client can read a response before its handler returns.
func (t *tracer) waitHandlers(n int64) {
	for deadline := time.Now().Add(time.Second); t.handlerCalls.Load() < n && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

// writeChrome writes the kept spans in Chrome trace-event format (load
// in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	n := min(t.n.Load(), int64(len(t.spans)))
	for i := int64(0); i < n; i++ {
		s := t.spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		parent := ""
		if s.kind > spanClient {
			parent = spanNames[s.kind-1]
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%q,\"pairs\":%d}}",
			spanNames[s.kind], s.kind+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.req, parent, s.pairs)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
