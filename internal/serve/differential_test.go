package serve

// Differential correctness: every route served by the service —
// Batcher.Submit directly, and the HTTP face over /route and
// /route/bulk in both codecs — must be port-identical to the direct
// core.CachedRouter.AppendRouteRanks reference, for every family.
// Concurrent submitters share the routing slots, and tiny random wait
// queues refuse some of them, who retry; none of that may be
// observable in the routes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// tenNetworks instantiates one small network per family (k = 5,
// N = 120), the same roster the tables and graph differentials use.
func tenNetworks(t *testing.T) []*core.Network {
	t.Helper()
	nws := make([]*core.Network, 0, len(core.Families))
	for _, f := range core.Families {
		if f == core.IS {
			nw, err := core.NewIS(5)
			if err != nil {
				t.Fatalf("NewIS(5): %v", err)
			}
			nws = append(nws, nw)
			continue
		}
		nw, err := core.New(f, 2, 2)
		if err != nil {
			t.Fatalf("New(%s, 2, 2): %v", f, err)
		}
		nws = append(nws, nw)
	}
	return nws
}

// refRoute is the ground truth the pipeline is measured against.
func refRoute(t *testing.T, cr *core.CachedRouter, src, dst int64) []gens.GenIndex {
	t.Helper()
	route, err := cr.AppendRouteRanks(nil, src, dst)
	if err != nil {
		t.Fatalf("reference route %d→%d: %v", src, dst, err)
	}
	return route
}

func portsEqual(a, b []gens.GenIndex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatcherDifferentialTenFamilies submits concurrent multi-pair
// jobs through batchers with randomized wait queues and asserts every
// returned route matches the direct router, pair by pair.
func TestBatcherDifferentialTenFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, nw := range tenNetworks(t) {
		cr := core.NewCachedRouter(nw, core.CacheConfig{})
		ref := core.NewCachedRouter(nw, core.CacheConfig{})
		n := perm.Factorial(nw.K())
		for trial := 0; trial < 3; trial++ {
			cfg := Config{QueueJobs: 1 + r.Intn(4)}
			b := NewBatcher(cr, cfg)
			var wg sync.WaitGroup
			errc := make(chan error, 4)
			for g := 0; g < 4; g++ {
				rg := rand.New(rand.NewSource(int64(1000*trial + g)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for jn := 0; jn < 8; jn++ {
						j := b.NewJob()
						pairs := 1 + rg.Intn(4)
						for p := 0; p < pairs; p++ {
							j.AddPair(rg.Int63n(n), rg.Int63n(n))
						}
						for {
							err := b.Submit(j)
							if errors.Is(err, ErrQueueFull) {
								continue // tiny random queues legitimately fill
							}
							if err != nil {
								errc <- fmt.Errorf("submit: %w", err)
								return
							}
							break
						}
						for p := 0; p < pairs; p++ {
							want, err := ref.AppendRouteRanks(nil, j.srcs[p], j.dsts[p])
							if err != nil {
								errc <- fmt.Errorf("reference route %d→%d: %w", j.srcs[p], j.dsts[p], err)
								return
							}
							if got := j.out.Route(p); !portsEqual(got, want) {
								errc <- fmt.Errorf("pair %d→%d routed %v, reference %v",
									j.srcs[p], j.dsts[p], got, want)
								return
							}
						}
						b.Release(j)
					}
				}()
			}
			wg.Wait()
			b.Close()
			close(errc)
			for err := range errc {
				t.Fatalf("%s cfg %+v: %v", nw.Name(), cfg, err)
			}
		}
	}
}

// postJSON posts v as JSON and decodes the response into out,
// requiring status 200.
func postJSON(t *testing.T, url string, v, out any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %q", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("POST %s: decoding %q: %v", url, body, err)
	}
}

// randomPairs draws the given number of uniform (src, dst) rank
// pairs in [0, n).
func randomPairs(r *rand.Rand, pairs int, n int64) (srcs, dsts []int64) {
	srcs, dsts = make([]int64, pairs), make([]int64, pairs)
	for i := range srcs {
		srcs[i], dsts[i] = r.Int63n(n), r.Int63n(n)
	}
	return srcs, dsts
}

// encodeBulkReq builds the binary request frame.
func encodeBulkReq(srcs, dsts []int64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, bulkReqMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, s := range srcs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
	}
	for _, d := range dsts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	return buf
}

// decodeBulkResp parses the binary response frame into per-pair port
// routes.
func decodeBulkResp(t *testing.T, blob []byte) [][]gens.GenIndex {
	t.Helper()
	if len(blob) < bulkHeaderLen {
		t.Fatalf("binary response truncated at %d bytes", len(blob))
	}
	if magic := binary.LittleEndian.Uint32(blob); magic != bulkRespMagic {
		t.Fatalf("binary response magic %#x, want %#x", magic, bulkRespMagic)
	}
	count := int(binary.LittleEndian.Uint32(blob[4:]))
	lens := make([]int, count)
	off := bulkHeaderLen
	total := 0
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
		total += lens[i]
	}
	if len(blob) != off+total {
		t.Fatalf("binary response is %d bytes for %d ports at offset %d", len(blob), total, off)
	}
	routes := make([][]gens.GenIndex, count)
	for i := range routes {
		routes[i] = make([]gens.GenIndex, lens[i])
		for p := range routes[i] {
			routes[i][p] = gens.GenIndex(blob[off])
			off++
		}
	}
	return routes
}

// TestHTTPDifferentialTenFamilies drives /route and /route/bulk (JSON
// and binary lanes) over real loopback HTTP for every family and
// checks port-identity with the direct router.
func TestHTTPDifferentialTenFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for _, nw := range tenNetworks(t) {
		ref := core.NewCachedRouter(nw, core.CacheConfig{})
		n := perm.Factorial(nw.K())
		svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{})
		mux := http.NewServeMux()
		svc.RegisterOn(mux)
		srv := httptest.NewServer(mux)

		for i := 0; i < 8; i++ {
			src, dst := r.Int63n(n), r.Int63n(n)
			var resp routeResponse
			postJSON(t, srv.URL+"/route", routeRequest{Src: src, Dst: dst}, &resp)
			want := refRoute(t, ref, src, dst)
			if resp.Hops != len(want) || len(resp.Ports) != len(want) {
				t.Fatalf("%s /route %d→%d: %d hops, reference %d", nw.Name(), src, dst, resp.Hops, len(want))
			}
			for p := range want {
				if gens.GenIndex(resp.Ports[p]) != want[p] {
					t.Fatalf("%s /route %d→%d: ports %v, reference %v", nw.Name(), src, dst, resp.Ports, want)
				}
			}
		}

		pairs := 1 + r.Intn(32)
		srcs, dsts := randomPairs(r, pairs, n)

		var bulk bulkResponse
		postJSON(t, srv.URL+"/route/bulk", bulkRequest{Srcs: srcs, Dsts: dsts}, &bulk)
		if bulk.Count != pairs || len(bulk.Lens) != pairs {
			t.Fatalf("%s /route/bulk JSON: count %d lens %d, want %d", nw.Name(), bulk.Count, len(bulk.Lens), pairs)
		}
		off := 0
		for i := 0; i < pairs; i++ {
			want := refRoute(t, ref, srcs[i], dsts[i])
			if int(bulk.Lens[i]) != len(want) {
				t.Fatalf("%s /route/bulk JSON pair %d: len %d, reference %d", nw.Name(), i, bulk.Lens[i], len(want))
			}
			for p := range want {
				if gens.GenIndex(bulk.Ports[off+p]) != want[p] {
					t.Fatalf("%s /route/bulk JSON pair %d: ports differ from reference", nw.Name(), i)
				}
			}
			off += len(want)
		}

		resp, err := http.Post(srv.URL+"/route/bulk", BulkContentType, bytes.NewReader(encodeBulkReq(srcs, dsts)))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /route/bulk binary: status %d, body %q", nw.Name(), resp.StatusCode, blob)
		}
		if got := resp.Header.Get("Content-Type"); got != BulkContentType {
			t.Fatalf("%s /route/bulk binary: Content-Type %q", nw.Name(), got)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(blob)) {
			t.Fatalf("%s /route/bulk binary: Content-Length %q for %d bytes", nw.Name(), cl, len(blob))
		}
		routes := decodeBulkResp(t, blob)
		if len(routes) != pairs {
			t.Fatalf("%s /route/bulk binary: %d routes, want %d", nw.Name(), len(routes), pairs)
		}
		for i := range routes {
			if want := refRoute(t, ref, srcs[i], dsts[i]); !portsEqual(routes[i], want) {
				t.Fatalf("%s /route/bulk binary pair %d (%d→%d): %v, reference %v",
					nw.Name(), i, srcs[i], dsts[i], routes[i], want)
			}
		}

		srv.Close()
		svc.Drain()
	}
}

// TestHTTPRejectsMalformed pins the 4xx edges of both endpoints:
// wrong method, broken JSON, data after the JSON body (trailing
// whitespace stays legal), mismatched lists, bad magic, truncated
// binary frames, rank out of range, and oversized bulk submissions.
func TestHTTPRejectsMalformed(t *testing.T) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{
		Batch: Config{MaxBulk: 8},
	})
	mux := http.NewServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Drain() }()

	expect := func(status int, method, path, ctype, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("%s %s %q: status %d, want %d", method, path, body, resp.StatusCode, status)
		}
	}

	expect(http.StatusMethodNotAllowed, http.MethodGet, "/route", "application/json", "")
	expect(http.StatusMethodNotAllowed, http.MethodGet, "/route/bulk", "application/json", "")
	expect(http.StatusBadRequest, http.MethodPost, "/route", "application/json", "{nope")
	expect(http.StatusBadRequest, http.MethodPost, "/route", "application/json", `{"src": 0, "dst": 999999}`)
	expect(http.StatusBadRequest, http.MethodPost, "/route", "application/json", `{"src":1,"dst":2}]`)
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", "application/json", `{"srcs":[1],"dsts":[2]}{"srcs":[3],"dsts":[4]}`)
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", "application/json", `{"srcs":[1],"dsts":[2]} garbage`)
	expect(http.StatusOK, http.MethodPost, "/route/bulk", "application/json", "{\"srcs\":[1],\"dsts\":[2]} \r\n\t")
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", "application/json", `{"srcs": [1, 2], "dsts": [3]}`)
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", "application/json", `{"srcs": [], "dsts": []}`)
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", "application/json",
		`{"srcs": [1,1,1,1,1,1,1,1,1], "dsts": [2,2,2,2,2,2,2,2,2]}`) // 9 pairs > MaxBulk 8
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", BulkContentType, "SCG")
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", BulkContentType, "XXXX\x01\x00\x00\x00")
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", BulkContentType, "SCGB\x02\x00\x00\x00short")
	expect(http.StatusBadRequest, http.MethodPost, "/route/bulk", BulkContentType, "SCGB\x00\x00\x00\x00")
}
