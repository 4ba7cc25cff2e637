package serve

// Fuzz targets for the request decoders: /route's on its pure entry,
// the two bulk decoders at two depths.
//
// FuzzDecodeRouteJSON, FuzzDecodeBulkBinary and FuzzDecodeBulkJSON
// call the pure decoders directly, so every execution of an input runs
// the same code: no panic; an accepted /route body decodes to
// encoding/json's src and dst, and every body of at most 1 KiB that
// encoding/json accepts is accepted; an accepted bulk input carries
// 1…MaxBulk pairs; an accepted binary frame re-encodes to the same
// bytes; an accepted JSON bulk body yields the same pairs as
// encoding/json.
//
// FuzzBulkBinary and FuzzBulkJSON drive the /route/bulk handler, so
// that admission, the batcher and the encoder run behind every input
// that decodes.  For every input: no panic; the answer is a 200 or a
// 4xx with a JSON {"error": …} body; and a 200 carries at most MaxBulk
// pairs, exactly as many as the input encodes, each routed
// port-identically to the direct router.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

const fuzzMaxBulk = 64

// fuzzService starts a service on MS(2,2) (k = 5) with MaxBulk 64,
// drained when the fuzz target ends, and a reference router beside it.
func fuzzService(f *testing.F) (*Service, *core.CachedRouter) {
	nw := core.MustNew(core.MS, 2, 2)
	svc := NewService(core.NewCachedRouter(nw, core.CacheConfig{}), ServiceConfig{
		Batch: Config{MaxBulk: fuzzMaxBulk},
	})
	f.Cleanup(svc.Drain)
	return svc, core.NewCachedRouter(nw, core.CacheConfig{})
}

// seedPairs calls add with pair lists drawn the way the HTTP
// differential draws its bulk requests on MS(2,2), then one list at
// MaxBulk and one over it.
func seedPairs(add func(srcs, dsts []int64)) {
	n := perm.Factorial(5)
	r := rand.New(rand.NewSource(72))
	for _, pairs := range []int{1 + r.Intn(32), 1 + r.Intn(32), 1 + r.Intn(32), fuzzMaxBulk, fuzzMaxBulk + 1} {
		add(randomPairs(r, pairs, n))
	}
}

// badBinaryFrames are malformed binary seeds: an over-MaxBulk count,
// a truncated header, bad magic, trailing data, and two frames.
func badBinaryFrames() [][]byte {
	valid := encodeBulkReq([]int64{1, 2}, []int64{3, 4})
	return [][]byte{
		[]byte("SCGB\xff\xff\xff\xff"),
		[]byte("SCG"),
		slices.Concat([]byte("XXXX"), valid[4:]),
		slices.Concat(valid, []byte(" garbage")),
		slices.Concat(valid, valid),
	}
}

// jsonSeeds returns the JSON seeds: the seedPairs lists, then bodies
// with trailing data, truncation, unequal lists and an out-of-range
// rank.
func jsonSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	seedPairs(func(srcs, dsts []int64) {
		body, err := json.Marshal(bulkRequest{Srcs: srcs, Dsts: dsts})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	})
	for _, body := range []string{
		`{"srcs":[1],"dsts":[2]}{"srcs":[3],"dsts":[4]}`,
		`{"srcs":[1],"dsts":[2]} garbage`,
		`{"srcs":[1],"dsts":[2]}]`,
		"{\"srcs\":[1],\"dsts\":[2]}\n",
		`{"srcs":[1],"dsts":[`,
		`{"srcs": [1, 2], "dsts": [3]}`,
		`{"srcs": [0], "dsts": [999999]}`,
	} {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

// checkDecoded checks the pairs an accepted input left in j.
func checkDecoded(t *testing.T, j *Job) {
	t.Helper()
	if len(j.srcs) != len(j.dsts) {
		t.Fatalf("accepted input decoded to %d srcs and %d dsts", len(j.srcs), len(j.dsts))
	}
	if len(j.srcs) < 1 || len(j.srcs) > fuzzMaxBulk {
		t.Fatalf("accepted input carries %d pairs, want 1…%d", len(j.srcs), fuzzMaxBulk)
	}
}

// FuzzDecodeRouteJSON fuzzes the pure /route decoder against
// encoding/json.  Its seeds are /route bodies drawn as the HTTP
// differential draws them, TestHTTPRejectsMalformed's /route bodies,
// and bodies just inside and just over the 1 KiB bound.
func FuzzDecodeRouteJSON(f *testing.F) {
	n := perm.Factorial(5)
	r := rand.New(rand.NewSource(72))
	for i := 0; i < 8; i++ {
		body, err := json.Marshal(routeRequest{Src: r.Int63n(n), Dst: r.Int63n(n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{"", "{nope", `{"src": 0, "dst": 999999}`, `{"src":1,"dst":2}]`} {
		f.Add([]byte(body))
	}
	pad := func(n int) []byte {
		return append([]byte(`{"src":1,"dst":2}`), bytes.Repeat([]byte{' '}, n-len(`{"src":1,"dst":2}`))...)
	}
	f.Add(pad(maxRouteBody))
	f.Add(pad(maxRouteBody + 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRouteJSON(body)
		var want routeRequest
		wantErr := json.Unmarshal(body, &want)
		if err != nil {
			if len(body) <= maxRouteBody && wantErr == nil {
				t.Fatalf("rejected %q (%v), which encoding/json accepts", body, err)
			}
			return
		}
		if len(body) > maxRouteBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte bound", len(body), maxRouteBody)
		}
		if wantErr != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", body, wantErr)
		}
		if req != want {
			t.Fatalf("%q decoded to %d→%d, encoding/json reads %d→%d", body, req.Src, req.Dst, want.Src, want.Dst)
		}
	})
}

// FuzzDecodeBulkBinary fuzzes the pure binary-frame decoder.
func FuzzDecodeBulkBinary(f *testing.F) {
	seedPairs(func(srcs, dsts []int64) { f.Add(encodeBulkReq(srcs, dsts)) })
	for _, body := range badBinaryFrames() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var j Job
		if decodeBulkBinary(body, fuzzMaxBulk, &j) != nil {
			return
		}
		checkDecoded(t, &j)
		if again := encodeBulkReq(j.srcs, j.dsts); !bytes.Equal(again, body) {
			t.Fatalf("accepted frame %x re-encodes to %x", body, again)
		}
	})
}

// FuzzDecodeBulkJSON fuzzes the pure JSON decoder against
// encoding/json.
func FuzzDecodeBulkJSON(f *testing.F) {
	for _, body := range jsonSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var j Job
		if decodeBulkJSON(body, fuzzMaxBulk, &j) != nil {
			return
		}
		checkDecoded(t, &j)
		var req bulkRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", body, err)
		}
		if !slices.Equal(j.srcs, req.Srcs) || !slices.Equal(j.dsts, req.Dsts) {
			t.Fatalf("%q decoded to %v→%v, encoding/json reads %v→%v", body, j.srcs, j.dsts, req.Srcs, req.Dsts)
		}
	})
}

// postBulk runs body through the bulk handler.  It returns the body of
// a 200, and nil after checking that any other answer is a 4xx with a
// JSON error body.
func postBulk(t *testing.T, svc *Service, ctype string, body []byte, unknownLength bool) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/route/bulk", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	if unknownLength {
		req.ContentLength = -1
	}
	rec := httptest.NewRecorder()
	svc.handleBulk(rec, req)
	if rec.Code == http.StatusOK {
		return rec.Body.Bytes()
	}
	if rec.Code < 400 || rec.Code > 499 {
		t.Fatalf("status %d for %q, want 200 or a 4xx", rec.Code, body)
	}
	var e struct {
		Error *string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
		t.Fatalf("status %d with body %q, want a JSON {\"error\": …} body", rec.Code, rec.Body.Bytes())
	}
	return nil
}

// checkRoutes checks a 200's routes against the pairs its input
// encodes.
func checkRoutes(t *testing.T, ref *core.CachedRouter, srcs, dsts []int64, routes [][]gens.GenIndex) {
	t.Helper()
	if len(srcs) > fuzzMaxBulk {
		t.Fatalf("200 for %d pairs, over MaxBulk %d", len(srcs), fuzzMaxBulk)
	}
	if len(routes) != len(srcs) {
		t.Fatalf("200 carries %d routes for %d pairs", len(routes), len(srcs))
	}
	for i := range srcs {
		if want := refRoute(t, ref, srcs[i], dsts[i]); !portsEqual(routes[i], want) {
			t.Fatalf("pair %d (%d→%d) routed %v, reference %v", i, srcs[i], dsts[i], routes[i], want)
		}
	}
}

// FuzzBulkBinary fuzzes the application/x-scg-bulk decoder, with the
// body's length both declared and left unknown.
func FuzzBulkBinary(f *testing.F) {
	svc, ref := fuzzService(f)
	seedPairs(func(srcs, dsts []int64) {
		f.Add(encodeBulkReq(srcs, dsts), false)
		f.Add(encodeBulkReq(srcs, dsts), true)
	})
	for _, body := range badBinaryFrames() {
		f.Add(body, false)
		f.Add(body, true)
	}
	f.Fuzz(func(t *testing.T, body []byte, unknownLength bool) {
		resp := postBulk(t, svc, BulkContentType, body, unknownLength)
		if resp == nil {
			return
		}
		if len(body) < bulkHeaderLen {
			t.Fatalf("200 for a %d-byte body", len(body))
		}
		count := int(binary.LittleEndian.Uint32(body[4:]))
		if len(body) != bulkHeaderLen+16*count {
			t.Fatalf("200 for a %d-byte body claiming %d pairs", len(body), count)
		}
		srcs, dsts := make([]int64, count), make([]int64, count)
		for i := range srcs {
			srcs[i] = int64(binary.LittleEndian.Uint64(body[bulkHeaderLen+8*i:]))
			dsts[i] = int64(binary.LittleEndian.Uint64(body[bulkHeaderLen+8*(count+i):]))
		}
		checkRoutes(t, ref, srcs, dsts, decodeBulkResp(t, resp))
	})
}

// FuzzBulkJSON fuzzes the JSON bulk decoder.
func FuzzBulkJSON(f *testing.F) {
	svc, ref := fuzzService(f)
	for _, body := range jsonSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp := postBulk(t, svc, "application/json", body, false)
		if resp == nil {
			return
		}
		var req bulkRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for %q, which does not decode: %v", body, err)
		}
		if len(req.Srcs) != len(req.Dsts) {
			t.Fatalf("200 for %q with %d srcs and %d dsts", body, len(req.Srcs), len(req.Dsts))
		}
		var got bulkResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatalf("200 body %q does not decode: %v", resp, err)
		}
		if got.Count != len(req.Srcs) || len(got.Lens) != got.Count {
			t.Fatalf("200 says count %d with %d lens for %d pairs", got.Count, len(got.Lens), len(req.Srcs))
		}
		routes := make([][]gens.GenIndex, 0, got.Count)
		off := 0
		for _, ln := range got.Lens {
			if ln < 0 || off+int(ln) > len(got.Ports) {
				t.Fatalf("lens %v overrun %d ports", got.Lens, len(got.Ports))
			}
			route := make([]gens.GenIndex, ln)
			for p := range route {
				route[p] = gens.GenIndex(got.Ports[off+p])
			}
			routes = append(routes, route)
			off += int(ln)
		}
		if off != len(got.Ports) {
			t.Fatalf("lens cover %d of %d ports", off, len(got.Ports))
		}
		checkRoutes(t, ref, req.Srcs, req.Dsts, routes)
	})
}
