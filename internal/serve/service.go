package serve

// The HTTP face of the routing service: POST /route (one pair, JSON)
// and POST /route/bulk (many pairs, JSON or the compact binary framing
// below).  Both handlers run the same admission sequence — per-client
// token bucket, then a bounded wait for a routing slot — and surface
// rejections as 429 with a Retry-After header (bucket empty, too many
// jobs waiting) or 503 (draining).  Admitted requests route on the
// handler's goroutine and record end-to-end latency into
// scg_serve_request_ns.
//
// Binary bulk framing (Content-Type application/x-scg-bulk), all
// little-endian:
//
//	request:  u32 magic "SCGB" | u32 count | count×i64 srcs | count×i64 dsts
//	response: u32 magic "SCGR" | u32 count | count×u32 lens | Σlens×u8 ports
//
// Ports are generator indices of the network's set (gens.GenIndex,
// one byte each) — the same port numbers the simulators replay.  The
// binary lane exists because the JSON codec limits the JSON lane: on
// the benchmark's serve-small-json-k8 ladder (bench/README.md) the
// codec costs 1,689 ns per pair against 498 ns of routing.  On the
// binary lane routing is the limit instead: 496 ns per pair against
// 56 ns of codec, and 86% of handler time on serve-hot-k8.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/obs"
)

// BulkContentType selects the binary bulk framing.
const BulkContentType = "application/x-scg-bulk"

// Binary framing constants ("SCGB"/"SCGR" read as little-endian u32).
const (
	bulkReqMagic  = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('B')<<24
	bulkRespMagic = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('R')<<24
	bulkHeaderLen = 8
)

// ServiceConfig bundles the routing and admission settings.
type ServiceConfig struct {
	Batch Config
	Limit LimitConfig
}

// Service owns a batcher and its admission limiter and serves them
// over HTTP.
type Service struct {
	b   *Batcher
	lim *Limiter
	// bufs pools the bulk request body and the binary response (one
	// buffer borrowed per phase, returned before the handler exits).
	bufs sync.Pool
}

// NewService returns a service over router; Drain stops it.
func NewService(router core.Router, cfg ServiceConfig) *Service {
	s := &Service{
		b:   NewBatcher(router, cfg.Batch),
		lim: NewLimiter(cfg.Limit),
	}
	s.bufs.New = func() any {
		buf := make([]byte, 0, 64<<10)
		return &buf
	}
	return s
}

// Batcher returns the batcher behind the service.
func (s *Service) Batcher() *Batcher { return s.b }

// Drain gracefully stops the service: admitted jobs finish routing and
// new admissions are refused with 503.  Blocks until drained.
func (s *Service) Drain() { s.b.Close() }

// RegisterOn mounts the routing endpoints on mux.
func (s *Service) RegisterOn(mux *http.ServeMux) {
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/route/bulk", s.handleBulk)
}

// clientKey identifies the caller for admission control: the
// X-SCG-Client header when present, else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-SCG-Client"); c != "" {
		return c
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

// retrySeconds renders a wait as a whole Retry-After value, at least
// 1 second (the header carries integral seconds).
func retrySeconds(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(blob, '\n'))
}

// reject maps a batcher admission error onto its HTTP shape: 429 +
// Retry-After when too many jobs wait for a routing slot, 503 +
// Retry-After while draining, 400 otherwise.
func (s *Service) reject(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		mRejQueueFull.Inc()
		// A slot is held only while one job routes, so the waiting
		// jobs clear well within the header's one-second floor.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "routing queue full")
	case errors.Is(err, ErrDraining):
		mRejDraining.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining, new admissions refused")
	default:
		mRejBadRequest.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// admit runs the token bucket for a request costing pairs tokens and
// writes the 429 itself when the bucket is dry.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, pairs int) bool {
	ok, wait := s.lim.Allow(clientKey(r), pairs)
	if !ok {
		mRejAdmission.Inc()
		w.Header().Set("Retry-After", retrySeconds(wait))
		httpError(w, http.StatusTooManyRequests, "admission rate exceeded")
	}
	return ok
}

// routeRequest and routeResponse are the /route JSON bodies.
type routeRequest struct {
	Src int64 `json:"src"`
	Dst int64 `json:"dst"`
}

// maxRouteBody bounds a /route body.
const maxRouteBody = 1 << 10

// decodeRouteJSON parses a /route body of at most maxRouteBody bytes:
// one JSON value, with nothing but whitespace after it.
func decodeRouteJSON(body []byte) (routeRequest, error) {
	var req routeRequest
	if len(body) > maxRouteBody {
		return req, fmt.Errorf("decoding request: body exceeds %d bytes", maxRouteBody)
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("decoding request: %v", err)
	}
	return req, nil
}

type routeResponse struct {
	Src   int64 `json:"src"`
	Dst   int64 `json:"dst"`
	Hops  int   `json:"hops"`
	Ports []int `json:"ports"`
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodPost {
		mRejBadRequest.Inc()
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON body {\"src\": rank, \"dst\": rank}")
		return
	}
	// The job comes first so its journey covers decode onward; every
	// early return releases it, which deactivates the journey on the
	// next Reset.
	j := s.b.NewJob()
	jny := j.Journey()
	obs.Flight.Begin(jny, obs.JourneyRoute)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRouteBody+1))
	var req routeRequest
	if err == nil {
		req, err = decodeRouteJSON(body)
	}
	if err != nil {
		s.b.Release(j)
		mRejBadRequest.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	jny.Mark(stDecode)
	if !s.admit(w, r, 1) {
		s.b.Release(j)
		return
	}
	jny.Mark(stAdmission)
	j.AddPair(req.Src, req.Dst)
	jny.SetPairs(1)
	if err := s.b.Submit(j); err != nil {
		s.b.Release(j)
		s.reject(w, err)
		return
	}
	mReqRoute.Inc()
	mPairsAdmitted.Inc()
	route := j.out.Route(0)
	resp := routeResponse{Src: req.Src, Dst: req.Dst, Hops: len(route), Ports: make([]int, len(route))}
	for i, p := range route {
		resp.Ports[i] = int(p)
	}
	w.Header().Set("Content-Type", "application/json")
	blob, _ := json.Marshal(resp)
	w.Write(append(blob, '\n'))
	jny.Mark(stEncode)
	obs.Flight.Finish(jny)
	s.b.Release(j)
	hRequestNs.Observe(0, uint64(time.Since(t0)))
}

// bulkRequest and bulkResponse are the /route/bulk JSON bodies.
type bulkRequest struct {
	Srcs []int64 `json:"srcs"`
	Dsts []int64 `json:"dsts"`
}

type bulkResponse struct {
	Count int     `json:"count"`
	Lens  []int32 `json:"lens"`
	Ports []int   `json:"ports"`
}

func (s *Service) handleBulk(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodPost {
		mRejBadRequest.Inc()
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST rank pairs as JSON or "+BulkContentType)
		return
	}
	binaryLane := r.Header.Get("Content-Type") == BulkContentType
	j := s.b.NewJob()
	defer s.b.Release(j)
	jny := j.Journey()
	obs.Flight.Begin(jny, obs.JourneyBulk)
	if err := s.decodeBulk(r, binaryLane, j); err != nil {
		mRejBadRequest.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	jny.Mark(stDecode)
	if !s.admit(w, r, j.Pairs()) {
		return
	}
	jny.Mark(stAdmission)
	jny.SetPairs(j.Pairs())
	if err := s.b.Submit(j); err != nil {
		s.reject(w, err)
		return
	}
	mReqBulk.Inc()
	mPairsAdmitted.Add(uint64(j.Pairs()))
	if binaryLane {
		s.writeBulkBinary(w, j)
	} else {
		writeBulkJSON(w, j)
	}
	jny.Mark(stEncode)
	obs.Flight.Finish(jny)
	hRequestNs.Observe(0, uint64(time.Since(t0)))
}

// maxBulkBody bounds a bulk body read on either lane; the decoders
// then check the pair count against MaxBulk before filling the job.
const maxBulkBody = bulkHeaderLen + 16*(1<<20)

// decodeBulk reads a body of at most maxBulkBody bytes into a pooled
// buffer and parses it into j with the lane's decoder.
func (s *Service) decodeBulk(r *http.Request, binaryLane bool, j *Job) error {
	bufp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bufp)
	body := (*bufp)[:0]
	var err error
	if n := r.ContentLength; n > 0 && n <= maxBulkBody {
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = readAllInto(body, r.Body, maxBulkBody+1)
		if len(body) > maxBulkBody {
			return fmt.Errorf("body exceeds %d bytes", maxBulkBody)
		}
	}
	if err != nil {
		return fmt.Errorf("reading body: %v", err)
	}
	*bufp = body[:0]
	if binaryLane {
		return decodeBulkBinary(body, s.b.cfg.MaxBulk, j)
	}
	return decodeBulkJSON(body, s.b.cfg.MaxBulk, j)
}

// checkBulkCount rejects an empty or over-maxBulk pair count.  The
// decoders call it before filling the job, so an oversized request is
// a 400 that neither grows the pooled job nor spends admission tokens.
func checkBulkCount(count, maxBulk int) error {
	if count == 0 {
		return fmt.Errorf("empty pair list")
	}
	if count > maxBulk {
		return fmt.Errorf("%w (%d > %d)", ErrTooLarge, count, maxBulk)
	}
	return nil
}

// decodeBulkJSON parses a JSON bulk body into j.  A body carrying n
// pairs holds 2n−1 commas, so counting them first caps what
// encoding/json may allocate per element at 2·maxBulk numbers, however
// many elements the body lists.
func decodeBulkJSON(body []byte, maxBulk int, j *Job) error {
	if commas := bytes.Count(body, []byte{','}); commas > 2*maxBulk-1 {
		return fmt.Errorf("%w (%d commas; %d pairs carry at most %d)", ErrTooLarge, commas, maxBulk, 2*maxBulk-1)
	}
	var req bulkRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	if len(req.Srcs) != len(req.Dsts) {
		return fmt.Errorf("srcs and dsts differ in length (%d vs %d)", len(req.Srcs), len(req.Dsts))
	}
	if err := checkBulkCount(len(req.Srcs), maxBulk); err != nil {
		return err
	}
	for i := range req.Srcs {
		j.AddPair(req.Srcs[i], req.Dsts[i])
	}
	return nil
}

func writeBulkJSON(w http.ResponseWriter, j *Job) {
	out := &j.out
	resp := bulkResponse{Count: j.Pairs(), Lens: make([]int32, j.Pairs()), Ports: make([]int, len(out.Steps))}
	for i := range resp.Lens {
		resp.Lens[i] = int32(out.Offsets[i+1] - out.Offsets[i])
	}
	for i, p := range out.Steps {
		resp.Ports[i] = int(p)
	}
	w.Header().Set("Content-Type", "application/json")
	blob, _ := json.Marshal(resp)
	w.Write(append(blob, '\n'))
}

// decodeBulkBinary parses a binary request frame into j.
func decodeBulkBinary(body []byte, maxBulk int, j *Job) error {
	if len(body) < bulkHeaderLen {
		return fmt.Errorf("truncated header (%d bytes)", len(body))
	}
	if magic := binary.LittleEndian.Uint32(body); magic != bulkReqMagic {
		return fmt.Errorf("bad magic %#x (want %#x)", magic, bulkReqMagic)
	}
	count := int(binary.LittleEndian.Uint32(body[4:]))
	if err := checkBulkCount(count, maxBulk); err != nil {
		return err
	}
	if want := bulkHeaderLen + 16*count; len(body) != want {
		return fmt.Errorf("body is %d bytes for %d pairs (want %d)", len(body), count, want)
	}
	ranks := body[bulkHeaderLen:]
	for i := 0; i < count; i++ {
		src := int64(binary.LittleEndian.Uint64(ranks[8*i:]))
		dst := int64(binary.LittleEndian.Uint64(ranks[8*(count+i):]))
		j.AddPair(src, dst)
	}
	return nil
}

func (s *Service) writeBulkBinary(w http.ResponseWriter, j *Job) {
	bufp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bufp)
	out := &j.out
	buf := (*bufp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, bulkRespMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(j.Pairs()))
	for i := 0; i < j.Pairs(); i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(out.Offsets[i+1]-out.Offsets[i]))
	}
	for _, p := range out.Steps {
		buf = append(buf, byte(p))
	}
	w.Header().Set("Content-Type", BulkContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
	*bufp = buf[:0]
}

// readAllInto is io.ReadAll appending into a reused buffer, stopping
// after limit bytes.  A full buffer doubles (from 4 KiB) up to limit,
// so a body of unknown length allocates about 3× its size in all;
// append's ~1.25× steps would allocate over 5×.
func readAllInto(buf []byte, r io.Reader, limit int) ([]byte, error) {
	r = io.LimitReader(r, int64(limit))
	for {
		if len(buf) == cap(buf) && cap(buf) < limit {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 4<<10), limit))
			buf = grown[:copy(grown, buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
