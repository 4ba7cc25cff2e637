package serve

// The HTTP face of the batching pipeline: POST /route (one pair,
// JSON) and POST /route/bulk (many pairs, JSON or the compact binary
// framing below).  Both handlers run the same admission sequence —
// per-client token bucket, then bounded-queue enqueue — and surface
// rejections as 429 with a Retry-After header (bucket empty, queue
// full) or 503 (draining).  Admitted requests block on their batch
// flush and record end-to-end latency into scg_serve_request_ns.
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

// ServiceConfig bundles the pipeline and admission settings.
type ServiceConfig struct {
	Batch Config
	Limit LimitConfig
}

// Service owns a batching pipeline and its admission limiter and
// serves them over HTTP.
type Service struct {
	b   *Batcher
	lim *Limiter
	// bufs pools request/response scratch for the binary lane (one
	// buffer borrowed per phase, returned before the handler exits).
	bufs sync.Pool
}

// NewService starts a service over router; Drain stops it.
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

// Batcher returns the pipeline behind the service.
func (s *Service) Batcher() *Batcher { return s.b }

// Drain gracefully stops the service: in-flight batches complete and
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
// Retry-After for a full queue, 503 + Retry-After while draining,
// 400 otherwise.
func (s *Service) reject(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		mRejQueueFull.Inc()
		// The queue drains on flush cadence, so MaxWait bounds how soon
		// capacity reappears; Retry-After is its ceiling in seconds.
		w.Header().Set("Retry-After", retrySeconds(s.b.Config().MaxWait))
		httpError(w, http.StatusTooManyRequests, "batch queue full")
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
	var req routeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<10)).Decode(&req); err != nil {
		s.b.Release(j)
		mRejBadRequest.Inc()
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
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
	jny.Mark(stResume)
	mReqRoute.Inc()
	mPairsAdmitted.Inc()
	resp := routeResponse{Src: req.Src, Dst: req.Dst, Hops: int(j.lens[0]), Ports: make([]int, j.lens[0])}
	for i, p := range j.steps[:j.lens[0]] {
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
	var err error
	if binaryLane {
		err = s.decodeBulkBinary(r, j)
	} else {
		err = s.decodeBulkJSON(r, j)
	}
	if err != nil {
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
	jny.Mark(stResume)
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

// maxBulkBody bounds a binary bulk body read; the pair cap is checked
// again precisely after the header is parsed.
const maxBulkBody = bulkHeaderLen + 16*(1<<20)

// checkBulkCount rejects an empty or over-MaxBulk pair count.  The
// decoders call it before filling the job, so an oversized request is
// a 400 that neither grows the pooled job nor spends admission tokens.
func (s *Service) checkBulkCount(count int) error {
	if count == 0 {
		return fmt.Errorf("empty pair list")
	}
	if limit := s.b.Config().MaxBulk; count > limit {
		return fmt.Errorf("%w (%d > %d)", ErrTooLarge, count, limit)
	}
	return nil
}

func (s *Service) decodeBulkJSON(r *http.Request, j *Job) error {
	var req bulkRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBulkBody)).Decode(&req); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	if len(req.Srcs) != len(req.Dsts) {
		return fmt.Errorf("srcs and dsts differ in length (%d vs %d)", len(req.Srcs), len(req.Dsts))
	}
	if err := s.checkBulkCount(len(req.Srcs)); err != nil {
		return err
	}
	for i := range req.Srcs {
		j.AddPair(req.Srcs[i], req.Dsts[i])
	}
	return nil
}

func writeBulkJSON(w http.ResponseWriter, j *Job) {
	resp := bulkResponse{Count: j.Pairs(), Lens: j.lens, Ports: make([]int, len(j.steps))}
	for i, p := range j.steps {
		resp.Ports[i] = int(p)
	}
	w.Header().Set("Content-Type", "application/json")
	blob, _ := json.Marshal(resp)
	w.Write(append(blob, '\n'))
}

func (s *Service) decodeBulkBinary(r *http.Request, j *Job) error {
	bufp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bufp)
	buf := (*bufp)[:0]
	var err error
	if n := r.ContentLength; n > 0 && n <= maxBulkBody {
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err = io.ReadFull(r.Body, buf)
	} else {
		buf, err = readAllInto(buf, io.LimitReader(r.Body, maxBulkBody+1))
		if len(buf) > maxBulkBody {
			return fmt.Errorf("body exceeds %d bytes", maxBulkBody)
		}
	}
	if err != nil {
		return fmt.Errorf("reading body: %v", err)
	}
	*bufp = buf[:0]
	if len(buf) < bulkHeaderLen {
		return fmt.Errorf("truncated header (%d bytes)", len(buf))
	}
	if magic := binary.LittleEndian.Uint32(buf); magic != bulkReqMagic {
		return fmt.Errorf("bad magic %#x (want %#x)", magic, bulkReqMagic)
	}
	count := int(binary.LittleEndian.Uint32(buf[4:]))
	if err := s.checkBulkCount(count); err != nil {
		return err
	}
	if want := bulkHeaderLen + 16*count; len(buf) != want {
		return fmt.Errorf("body is %d bytes for %d pairs (want %d)", len(buf), count, want)
	}
	body := buf[bulkHeaderLen:]
	for i := 0; i < count; i++ {
		src := int64(binary.LittleEndian.Uint64(body[8*i:]))
		dst := int64(binary.LittleEndian.Uint64(body[8*(count+i):]))
		j.AddPair(src, dst)
	}
	return nil
}

func (s *Service) writeBulkBinary(w http.ResponseWriter, j *Job) {
	bufp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bufp)
	buf := (*bufp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, bulkRespMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(j.Pairs()))
	for _, ln := range j.lens {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ln))
	}
	for _, p := range j.steps {
		buf = append(buf, byte(p))
	}
	w.Header().Set("Content-Type", BulkContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
	*bufp = buf[:0]
}

// readAllInto is io.ReadAll appending into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
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
