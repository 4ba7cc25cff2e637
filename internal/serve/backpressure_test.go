package serve

// Backpressure and admission control.  Three layers get pinned: the
// bounded queue (a saturated queue refuses with ErrQueueFull and the
// HTTP layer turns that into 429 + Retry-After, while every admitted
// request still completes), the error→status mapping itself, and the
// token-bucket limiter (a greedy client starves only its own bucket —
// the polite client beside it is never rejected).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/perm"
)

// TestQueueFullBackpressure saturates a one-worker, one-slot queue
// while the worker grinds a deliberately huge batch, and asserts the
// overflow submission is refused with ErrQueueFull — and that every
// admitted job still completes with a correct result.
func TestQueueFullBackpressure(t *testing.T) {
	nw := core.MustNew(core.MS, 7, 1) // k = 8: big enough that a bulk flush takes real time
	cr := core.NewCachedRouter(nw, core.CacheConfig{})
	n := perm.Factorial(nw.K())
	b := NewBatcher(cr, Config{
		MaxBatch:  1, // flush every job alone; no collect window
		MaxWait:   time.Millisecond,
		QueueJobs: 1,
		Workers:   1,
		MaxBulk:   1 << 20,
	})
	defer b.Close()

	// One big job monopolizes the single worker for a long stretch
	// (retrying in the unlikely case a probe beat it to the slot).
	var wg sync.WaitGroup
	var bigDone atomic.Bool
	bigErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer bigDone.Store(true)
		const pairs = 1 << 17
		j := b.NewJob()
		for p := 0; p < pairs; p++ {
			j.AddPair(int64(p)%n, int64(p*7+1)%n)
		}
		for {
			err := b.Submit(j)
			if errors.Is(err, ErrQueueFull) {
				continue
			}
			if err != nil {
				bigErr <- fmt.Errorf("big job failed: %w", err)
				return
			}
			break
		}
		if len(j.Lens()) != pairs {
			bigErr <- fmt.Errorf("big job returned %d lens, want %d", len(j.Lens()), pairs)
			return
		}
		b.Release(j)
	}()

	// While the big job grinds (or waits in the slot), rounds of three
	// concurrent one-pair probes hit the one-slot queue: at most one of
	// them can hold the slot, so some probe in the round must be
	// refused with ErrQueueFull.  Admitted probes complete — that is
	// the other half of the contract.  Rounds repeat until the
	// refusal is observed or the big job finishes (which would mean the
	// saturation window was somehow never caught).
	sawFull := false
	for !sawFull && !bigDone.Load() {
		probeErrs := make(chan error, 3)
		var round sync.WaitGroup
		for i := 0; i < 3; i++ {
			round.Add(1)
			go func() {
				defer round.Done()
				j := b.NewJob()
				j.AddPair(0, 1)
				err := b.Submit(j)
				if err == nil {
					if len(j.Lens()) != 1 {
						err = fmt.Errorf("admitted probe returned %d lens", len(j.Lens()))
					}
				}
				b.Release(j)
				probeErrs <- err
			}()
		}
		round.Wait()
		close(probeErrs)
		for err := range probeErrs {
			if errors.Is(err, ErrQueueFull) {
				sawFull = true
			} else if err != nil {
				t.Fatalf("probe: %v", err)
			}
		}
	}
	wg.Wait()
	close(bigErr)
	for err := range bigErr {
		t.Fatal(err)
	}
	if !sawFull {
		t.Fatal("never observed ErrQueueFull with a saturated one-slot queue")
	}
}

// TestRejectStatusMapping pins the HTTP shape of each admission
// error: 429 + Retry-After for a full queue, 503 + Retry-After while
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
	if got := lim.Clients(); got != 3 {
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
