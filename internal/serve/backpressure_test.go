package serve

// Backpressure and admission control.  Three layers get pinned: the
// bounded wait for a routing slot (past QueueJobs waiting jobs Submit
// refuses with ErrQueueFull, which the HTTP layer turns into 429 +
// Retry-After, while every admitted request still completes), the
// error→status mapping itself, and the token-bucket limiter (a greedy
// client starves only its own bucket — the polite client beside it is
// never rejected).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/perm"
)

// TestQueueFullBackpressure holds every routing slot in a gated
// router and lets QueueJobs jobs wait behind them: the next Submit is
// refused with ErrQueueFull, and once the gate opens every admitted
// job completes with correct routes.
func TestQueueFullBackpressure(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	g := newGatedRouter(core.NewCachedRouter(nw, core.CacheConfig{}))
	const queueJobs = 3
	b := NewBatcher(g, Config{QueueJobs: queueJobs})
	defer b.Close()
	n := perm.Factorial(nw.K())
	slots := cap(b.slots)

	var wg sync.WaitGroup
	job := func(i int) *Job {
		j := b.NewJob()
		j.AddPair(int64(i)%n, int64(5*i+1)%n)
		return j
	}
	for i := 0; i < slots; i++ {
		submitChecked(t, &wg, b, ref, job(i))
	}
	for i := 0; i < slots; i++ {
		<-g.entered
	}
	for i := slots; i < slots+queueJobs; i++ {
		submitChecked(t, &wg, b, ref, job(i))
	}
	awaitWaiting(b, queueJobs)

	over := job(slots + queueJobs)
	if err := b.Submit(over); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit with %d slots busy and %d jobs waiting returned %v, want ErrQueueFull", slots, queueJobs, err)
	}
	b.Release(over)
	close(g.gate)
	wg.Wait()
}

// TestRejectStatusMapping pins the HTTP shape of each admission
// error: 429 + Retry-After for a full wait queue, 503 + Retry-After while
// draining, 400 otherwise.
func TestRejectStatusMapping(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{})
	defer svc.Drain()

	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{ErrQueueFull, http.StatusTooManyRequests, true},
		{ErrDraining, http.StatusServiceUnavailable, true},
		{ErrRankRange, http.StatusBadRequest, false},
		{ErrEmptyJob, http.StatusBadRequest, false},
		{fmt.Errorf("wrapping: %w", ErrQueueFull), http.StatusTooManyRequests, true},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		svc.reject(rec, c.err)
		if rec.Code != c.status {
			t.Errorf("reject(%v): status %d, want %d", c.err, rec.Code, c.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != c.retryAfter {
			t.Errorf("reject(%v): Retry-After present=%v, want %v", c.err, got, c.retryAfter)
		}
	}
}

// TestDrainingOverHTTP pins the 503 + Retry-After a drained service
// answers with.
func TestDrainingOverHTTP(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	svc.Drain()
	resp, err := http.Post(srv.URL+"/route", "application/json", bytes.NewReader([]byte(`{"src": 0, "dst": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining service answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After")
	}
}

// TestAdmission429OverHTTP exhausts a client's token bucket over real
// HTTP and checks the 429 carries a Retry-After, while a second
// client identity sails through — bucket isolation end to end.
func TestAdmission429OverHTTP(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{
		Limit: LimitConfig{Rate: 0.001, Burst: 2}, // two tokens, then an hour-scale refill
	})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Drain() }()

	post := func(client string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/route", bytes.NewReader([]byte(`{"src": 0, "dst": 1}`)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-SCG-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("greedy"); resp.StatusCode != http.StatusOK {
			t.Fatalf("greedy request %d within burst answered %d", i, resp.StatusCode)
		}
	}
	resp := post("greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("greedy request beyond burst answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("admission 429 carries no Retry-After")
	}
	if resp := post("polite"); resp.StatusCode != http.StatusOK {
		t.Errorf("polite client rejected with %d while greedy was throttled", resp.StatusCode)
	}
}

// TestOversizedBulkRejectedBeforeAdmission pins the order of the bulk
// checks on both lanes: a request over MaxBulk is a 400 from the
// decoder and spends none of the client's tokens — not even one over
// Burst, which the bucket could never admit — so the 16-token burst
// still covers the two full-size requests that follow.
func TestOversizedBulkRejectedBeforeAdmission(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{
		Batch: Config{MaxBulk: 8},
		Limit: LimitConfig{Rate: 1, Burst: 16},
	})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Drain() }()

	post := func(binaryLane bool, pairs int) int {
		t.Helper()
		srcs, dsts := make([]int64, pairs), make([]int64, pairs)
		for i := range srcs {
			srcs[i], dsts[i] = int64(i), int64(i+1)
		}
		ctype, client := "application/json", "json-client"
		body, err := json.Marshal(bulkRequest{Srcs: srcs, Dsts: dsts})
		if err != nil {
			t.Fatal(err)
		}
		if binaryLane {
			ctype, client, body = BulkContentType, "binary-client", encodeBulkReq(srcs, dsts)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/route/bulk", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		req.Header.Set("X-SCG-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, binaryLane := range []bool{false, true} {
		for _, step := range []struct{ pairs, want int }{
			{9, http.StatusBadRequest},  // over MaxBulk, within Burst
			{17, http.StatusBadRequest}, // over MaxBulk and over Burst
			{8, http.StatusOK},
			{8, http.StatusOK}, // the burst is still whole
		} {
			if got := post(binaryLane, step.pairs); got != step.want {
				t.Errorf("binary=%v: %d-pair request answered %d, want %d", binaryLane, step.pairs, got, step.want)
			}
		}
	}
}

// TestJSONBulkDecodeBoundedByMaxBulk pins that the JSON lane bounds
// its decode by MaxBulk before encoding/json allocates per element: a
// body at the size cap that lists millions of ranks is a 400, and the
// handler allocates no more than about twice the body.
func TestJSONBulkDecodeBoundedByMaxBulk(t *testing.T) {
	const tail = `0],"dsts":[0]}`
	body := append(make([]byte, 0, maxBulkBody), `{"srcs":[`...)
	for len(body)+2+len(tail) <= maxBulkBody {
		body = append(body, '0', ',')
	}
	body = append(body, tail...)

	// A body without a declared length (chunked) grows the read buffer
	// as it arrives, so it may allocate more than one of known length.
	for _, c := range []struct {
		name     string
		length   int64
		maxAlloc float64 // × len(body)
	}{
		{"declared length", int64(len(body)), 2},
		{"unknown length", -1, 3.5},
	} {
		nw := core.MustNew(core.MS, 2, 2)
		svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{})
		req := httptest.NewRequest(http.MethodPost, "/route/bulk", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = c.length
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		svc.handleBulk(rec, req)
		runtime.ReadMemStats(&after)
		svc.Drain()
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d-byte body of %d ranks answered %d, want 400", c.name, len(body), len(body)/2, rec.Code)
		}
		limit := uint64(c.maxAlloc * float64(len(body)))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Errorf("%s: rejecting a %d-byte body allocated %d bytes (%.2f×), want at most %d (%.1f×)",
				c.name, len(body), grew, float64(grew)/float64(len(body)), limit, c.maxAlloc)
		}
	}
}

// TestLimiterIsolation drives allowAt on a synthetic clock: the
// greedy client drains its bucket and stays rejected until the
// advertised wait elapses, the polite client is never rejected, and
// refill never exceeds Burst.
func TestLimiterIsolation(t *testing.T) {
	lim := NewLimiter(LimitConfig{Rate: 100, Burst: 200})
	clock := time.Unix(0, 0)

	// Polite: 50 pairs/s against a 100/s bucket, never rejected.
	// Greedy: 400 pairs/s, rejected once its burst is gone.
	politeRejected, greedyRejected := 0, 0
	for tick := 0; tick < 100; tick++ {
		clock = clock.Add(100 * time.Millisecond)
		if ok, _ := lim.allowAt("polite", 5, clock); !ok {
			politeRejected++
		}
		if ok, _ := lim.allowAt("greedy", 40, clock); !ok {
			greedyRejected++
		}
	}
	if politeRejected != 0 {
		t.Errorf("polite client rejected %d times under a greedy neighbor", politeRejected)
	}
	if greedyRejected == 0 {
		t.Error("greedy client was never rejected at 4× its rate")
	}

	// The advertised wait is honest: after rejection, waiting that
	// long admits the same request — and waiting half of it does not.
	lim2 := NewLimiter(LimitConfig{Rate: 10, Burst: 10})
	base := time.Unix(100, 0)
	for _, c := range []string{"c", "d"} {
		if ok, _ := lim2.allowAt(c, 10, base); !ok {
			t.Fatal("fresh bucket refused its full burst")
		}
	}
	ok, wait := lim2.allowAt("c", 5, base)
	if ok {
		t.Fatal("drained bucket admitted 5 more pairs")
	}
	if ok, _ := lim2.allowAt("d", 5, base.Add(wait/2)); ok {
		t.Error("admitted at half the advertised wait")
	}
	if ok, _ := lim2.allowAt("c", 5, base.Add(wait)); !ok {
		t.Error("still rejected after the advertised wait elapsed")
	}

	// Burst caps the refill: a long-idle bucket holds Burst, not more.
	lim3 := NewLimiter(LimitConfig{Rate: 10, Burst: 5})
	t0 := time.Unix(200, 0)
	lim3.allowAt("c", 5, t0)
	if ok, _ := lim3.allowAt("c", 6, t0.Add(time.Hour)); ok {
		t.Error("idle bucket refilled beyond Burst")
	}
	if ok, _ := lim3.allowAt("c", 5, t0.Add(2*time.Hour)); !ok {
		t.Error("idle bucket does not hold its full Burst")
	}

	// A nil limiter (Rate ≤ 0) admits everything.
	var nilLim *Limiter
	if ok, _ := nilLim.Allow("anyone", 1<<30); !ok {
		t.Error("nil limiter rejected")
	}
	if NewLimiter(LimitConfig{Rate: 0}) != nil {
		t.Error("NewLimiter(Rate 0) did not disable admission control")
	}
}

// TestLimiterBoundedClients pins the overflow behavior: the tracked
// map stops at MaxClients and later identities share one bucket.
func TestLimiterBoundedClients(t *testing.T) {
	lim := NewLimiter(LimitConfig{Rate: 1, Burst: 4, MaxClients: 3})
	clock := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		lim.allowAt(fmt.Sprintf("client-%d", i), 1, clock)
	}
	lim.mu.Lock()
	got := len(lim.clients)
	lim.mu.Unlock()
	if got != 3 {
		t.Fatalf("tracking %d clients, want the MaxClients bound 3", got)
	}
	// Overflow identities drain the one shared bucket: 4 tokens went to
	// clients 3..6 above (client-3 onward share), so a fresh overflow
	// identity is rejected while a tracked client still has tokens.
	if ok, _ := lim.allowAt("client-99", 1, clock); ok {
		t.Error("overflow bucket admitted after its shared tokens were spent")
	}
	if ok, _ := lim.allowAt("client-0", 1, clock); !ok {
		t.Error("tracked client rejected; overflow spending leaked into its bucket")
	}
}
