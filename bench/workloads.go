package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
	"supercayley/internal/shard"
	"supercayley/internal/sim"
)

// workload is one fixed traffic mix.  Every field is part of the
// benchmark's definition; README.md gives the reason for each mix.
type workload struct {
	name string
	// l selects the host MS(l,1): k = l+1 symbols, (l+1)! nodes.
	l int
	// zipf draws endpoints zipf(s=1.2), so quotients repeat and the
	// route cache hits; otherwise endpoints are uniform.
	zipf bool
	// offline routes in process through Router.RouteManyInto, with no
	// service or HTTP in the path.
	offline  bool
	jsonLane bool
	// bulk is the pairs per HTTP request, or per open-loop call offline:
	// 512, the batcher's flush size, keeps those calls on RouteManyInto's
	// sequential path, so queueing behind a call stays short.
	bulk int
	// capBulk is the pairs per closed-loop call offline.
	capBulk int
	// lo and hi are the open-loop offered rates in routes/s.  hi is about
	// 30% of capacity: at 40-50% a host slowdown of a third pushed the
	// phase into queueing, and its median latency up as much as eightfold.
	lo, hi float64
	// shards > 0 serves from shard.Engine, as `scg serve -shards N
	// -shard-residency R` builds it; otherwise from core.CachedRouter,
	// the `scg serve` default.
	shards    int
	residency int64
	// warmChunk is the pairs routed per warm step of set-up.
	warmChunk int
}

var workloads = []workload{
	{name: "serve-hot-k8", l: 7, zipf: true, bulk: 512, lo: 200e3, hi: 500e3, warmChunk: 65536},
	{name: "serve-cold-k10", l: 9, bulk: 512, lo: 100e3, hi: 200e3, shards: 2, residency: 1 << 20, warmChunk: 200000},
	{name: "serve-small-json-k8", l: 7, zipf: true, jsonLane: true, bulk: 64, lo: 8e3, hi: 24e3, warmChunk: 65536},
	{name: "offline-k9", l: 8, offline: true, bulk: 512, capBulk: 65536, lo: 100e3, hi: 250e3, warmChunk: 65536},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload for the smoke test: k = 5 or 6 and small
// batches, with every layer still on the path.
func (w workload) toy() workload {
	if w.l > 5 {
		w.l = 4 + w.l%2
	}
	w.warmChunk = 2048
	if w.capBulk > 0 {
		w.capBulk = 4096
	}
	return w
}

// inputs are the seeded pairs a run routes, with their reference
// route lengths computed off the clock by the bare kernel.
type inputs struct {
	srcs, dsts []int64
	ref        []uint16
	totalRef   int64
	warmSrcs   []int64
	warmDsts   []int64
}

func drawPairs(w workload, n int64, pairs int, seed int64) (srcs, dsts []int64) {
	var wl sim.Workload
	if w.zipf {
		wl = sim.ZipfWorkload(int(n), pairs, seed, 1.2)
	} else {
		wl = sim.UniformWorkload(int(n), pairs, seed)
	}
	srcs = make([]int64, pairs)
	dsts = make([]int64, pairs)
	for i := range srcs {
		srcs[i] = int64(wl.Srcs[i])
		dsts[i] = int64(wl.Dsts[i])
	}
	return srcs, dsts
}

// makeInputs draws the measured pool and the warm stream from seed and
// routes the pool once with Network.RouteInto for the reference.
func makeInputs(w workload, nw *core.Network, seed int64, pool int) *inputs {
	in := &inputs{}
	in.srcs, in.dsts = drawPairs(w, nw.N(), pool, seed)
	in.warmSrcs, in.warmDsts = drawPairs(w, nw.N(), 8*w.warmChunk, seed^0x5eed0f5eed)
	in.ref = make([]uint16, pool)
	k := nw.K()
	u, v := make(perm.Perm, k), make(perm.Perm, k)
	s := core.NewRouteScratch(k)
	buf := make([]gens.GenIndex, 0, 256)
	for i := range in.srcs {
		perm.UnrankInto(u, in.srcs[i])
		perm.UnrankInto(v, in.dsts[i])
		route := nw.RouteInto(buf[:0], u, v, s)
		in.ref[i] = uint16(len(route))
		in.totalRef += int64(len(route))
	}
	return in
}

// system is one set-up of a workload: the router and, for the HTTP
// workloads, the service on a loopback listener, as `scg serve` runs
// them.
type system struct {
	w      workload
	nw     *core.Network
	router core.Router // what the service flushes into (wrapped when traced)
	base   core.Router // the router itself, unwrapped
	engine *shard.Engine
	svc    *serve.Service
	mux    *http.ServeMux
	srv    *http.Server
	url    string
	served chan error
}

// wrapRouter lets the traced run and the smoke test decorate the
// router the service sees.
type wrapRouter func(core.Router) core.Router

func newSystem(w workload, wrap wrapRouter, handler func(http.Handler) http.Handler) (*system, error) {
	nw, err := core.New(core.MS, w.l, 1)
	if err != nil {
		return nil, err
	}
	sys := &system{w: w, nw: nw}
	if w.shards > 0 {
		sys.engine, err = shard.New(nw, shard.Config{
			Shards:             w.shards,
			ShardResidentBytes: w.residency,
			ForceBanded:        w.residency > 0,
		})
		if err != nil {
			return nil, err
		}
		sys.router = sys.engine
	} else {
		sys.router = core.NewCachedRouter(nw, core.CacheConfig{})
	}
	sys.base = sys.router
	if wrap != nil {
		sys.router = wrap(sys.router)
	}
	if w.offline {
		return sys, nil
	}
	if err := sys.listen(handler); err != nil {
		return nil, err
	}
	return sys, nil
}

// listen starts a service over the router on a loopback listener; the
// offline workload calls it only for the ladder's serving rungs.
func (sys *system) listen(handler func(http.Handler) http.Handler) error {
	sys.svc = serve.NewService(sys.router, serve.ServiceConfig{})
	sys.mux = http.NewServeMux()
	sys.svc.RegisterOn(sys.mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.svc.Drain()
		return err
	}
	var h http.Handler = sys.mux
	if handler != nil {
		h = handler(h)
	}
	sys.srv = &http.Server{Handler: h}
	sys.url = "http://" + ln.Addr().String() + "/route/bulk"
	sys.served = make(chan error, 1)
	go func() { sys.served <- sys.srv.Serve(ln) }()
	return nil
}

// close stops the listener, waits for Serve to return, and drains the
// batcher.
func (sys *system) close() error {
	if sys.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := sys.srv.Shutdown(ctx)
	if serr := <-sys.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sys.svc.Drain()
	sys.srv = nil
	return err
}

// resident is the warm state set-up waits on: cached routes plus table
// bytes.
func (sys *system) resident() int64 {
	r := int64(sys.router.Stats().Entries)
	if sys.engine != nil {
		r += sys.engine.TableBytes()
	}
	return r
}

// warm routes the warm stream in warmChunk steps until resident state
// (cached routes plus table bytes) stops changing: the first step that
// grows it by at most 1% ends set-up.  Resident state is the router's
// alone, so each step is one in-process RouteManyInto on it: warming
// over HTTP would add round trips that only time the host, and would
// grow whichever batcher flush buffer served the request, and the heap
// reading with it.  The untimed warm-up phase settles the serving path.
func (sys *system) warm(in *inputs) error {
	w := sys.w
	var out core.BulkRoutes
	for off := 0; off+w.warmChunk <= len(in.warmSrcs); off += w.warmChunk {
		before := sys.resident()
		if err := sys.base.RouteManyInto(&out, in.warmSrcs[off:off+w.warmChunk], in.warmDsts[off:off+w.warmChunk]); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		if after := sys.resident(); after-before <= after/100 {
			return nil
		}
	}
	return nil
}

// setUp builds, starts and warms one system, returning it with the
// wall time and the heap it added (HeapAlloc after GC, before vs
// after).
func setUp(w workload, in *inputs, wrap wrapRouter, handler func(http.Handler) http.Handler) (*system, float64, float64, error) {
	heap0 := settledHeap()
	t0 := time.Now()
	sys, err := newSystem(w, wrap, handler)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := sys.warm(in); err != nil {
		sys.close()
		return nil, 0, 0, err
	}
	secs := time.Since(t0).Seconds()
	return sys, secs, float64(int64(settledHeap())-int64(heap0)) / (1 << 20), nil
}

// settledHeap returns HeapAlloc once a collection no longer lowers it
// (at most five): objects parked in a sync.Pool survive the first
// collection in its victim cache, so one collection leaves a
// pool-dependent remainder in the reading.
func settledHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for i := 0; i < 4; i++ {
		prev := ms.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= prev {
			break
		}
	}
	return ms.HeapAlloc
}
