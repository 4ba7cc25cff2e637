package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"supercayley/internal/core"
	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/serve"
)

// Binary bulk framing of serve.BulkContentType ("SCGB" request, "SCGR"
// response, little-endian).
const (
	reqMagic  = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('B')<<24
	respMagic = uint32('S') | uint32('C')<<8 | uint32('G')<<16 | uint32('R')<<24
)

// caller is one client of the system: over HTTP it owns exactly one
// keep-alive connection; offline it calls RouteManyInto directly.
// After route returns nil, lens and ports hold the routed batch.
type caller struct {
	sys   *system
	json  bool // JSON bulk lane, else binary
	tr    *http.Transport
	hc    *http.Client
	body  []byte
	resp  []byte
	out   core.BulkRoutes
	lens  []int32
	ports []gens.GenIndex
	// reqID, when set, tags the next request for the traced run.
	reqID int64
	// encode, do and decode time the last HTTP call's client phases.
	encode, do, decode time.Duration
}

// newCaller returns a client of sys: over loopback HTTP when overHTTP
// (the offline workload's ladder uses that for its serving rungs),
// else in process.
func (sys *system) newCaller(overHTTP bool) *caller {
	c := &caller{sys: sys, json: sys.w.jsonLane}
	if overHTTP {
		c.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c.hc = &http.Client{Transport: c.tr}
	}
	return c
}

func (c *caller) closeIdle() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
}

// route routes one batch.  Over HTTP a transport error, a non-200
// status or a response whose framing does not match the request (pair
// count, route lengths against port bytes) is an error.
func (c *caller) route(srcs, dsts []int64) error {
	if c.hc == nil {
		if err := c.sys.router.RouteManyInto(&c.out, srcs, dsts); err != nil {
			return err
		}
		c.lens = c.lens[:0]
		for i := 0; i < c.out.Pairs(); i++ {
			c.lens = append(c.lens, int32(c.out.Offsets[i+1]-c.out.Offsets[i]))
		}
		c.ports = c.out.Steps
		if len(c.lens) != len(srcs) {
			return fmt.Errorf("RouteManyInto returned %d routes for %d pairs", len(c.lens), len(srcs))
		}
		return nil
	}
	t0 := time.Now()
	c.encodeBody(srcs, dsts)
	req, err := http.NewRequest(http.MethodPost, c.sys.url, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	if c.json {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", serve.BulkContentType)
	}
	if c.reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(c.reqID, 10))
	}
	t1 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.resp, err = readAll(c.resp[:0], res.Body)
	res.Body.Close()
	t2 := time.Now()
	c.encode, c.do = t1.Sub(t0), t2.Sub(t1)
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", res.StatusCode, c.resp)
	}
	if c.json {
		err = c.decodeJSON(len(srcs))
	} else {
		err = c.decodeBinary(len(srcs))
	}
	c.decode = time.Since(t2)
	return err
}

func (c *caller) encodeBody(srcs, dsts []int64) {
	b := c.body[:0]
	if c.json {
		b = append(b, `{"srcs":[`...)
		for i, s := range srcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, s, 10)
		}
		b = append(b, `],"dsts":[`...)
		for i, d := range dsts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, d, 10)
		}
		c.body = append(b, `]}`...)
		return
	}
	b = binary.LittleEndian.AppendUint32(b, reqMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(srcs)))
	for _, s := range srcs {
		b = binary.LittleEndian.AppendUint64(b, uint64(s))
	}
	for _, d := range dsts {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	c.body = b
}

// decodeBinary checks the response frame: magic, pair count, and a byte
// length equal to the header, the lens block and the summed lens.
func (c *caller) decodeBinary(pairs int) error {
	r := c.resp
	if len(r) < 8 || binary.LittleEndian.Uint32(r) != respMagic {
		return fmt.Errorf("bad response header (%d bytes)", len(r))
	}
	if n := int(binary.LittleEndian.Uint32(r[4:])); n != pairs {
		return fmt.Errorf("response count %d for %d pairs", n, pairs)
	}
	if len(r) < 8+4*pairs {
		return fmt.Errorf("truncated lens block (%d bytes for %d pairs)", len(r), pairs)
	}
	c.lens = c.lens[:0]
	total := 0
	for i := 0; i < pairs; i++ {
		ln := int32(binary.LittleEndian.Uint32(r[8+4*i:]))
		c.lens = append(c.lens, ln)
		total += int(ln)
	}
	body := r[8+4*pairs:]
	if len(body) != total {
		return fmt.Errorf("response carries %d port bytes, lens sum to %d", len(body), total)
	}
	c.ports = c.ports[:0]
	for _, p := range body {
		c.ports = append(c.ports, gens.GenIndex(p))
	}
	return nil
}

type bulkJSON struct {
	Count int     `json:"count"`
	Lens  []int32 `json:"lens"`
	Ports []int   `json:"ports"`
}

func (c *caller) decodeJSON(pairs int) error {
	var r bulkJSON
	if err := json.Unmarshal(c.resp, &r); err != nil {
		return fmt.Errorf("parsing response: %w", err)
	}
	if r.Count != pairs || len(r.Lens) != pairs {
		return fmt.Errorf("response count %d with %d lens for %d pairs", r.Count, len(r.Lens), pairs)
	}
	total := 0
	for _, ln := range r.Lens {
		total += int(ln)
	}
	if total != len(r.Ports) {
		return fmt.Errorf("response carries %d ports, lens sum to %d", len(r.Ports), total)
	}
	c.lens = append(c.lens[:0], r.Lens...)
	c.ports = c.ports[:0]
	for _, p := range r.Ports {
		if p < 0 || p > 255 {
			return fmt.Errorf("port %d out of range", p)
		}
		c.ports = append(c.ports, gens.GenIndex(p))
	}
	return nil
}

// readAll is io.ReadAll appending into a reused buffer.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
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

// sample is one routed pair kept for replay after the phase.
type sample struct {
	idx   int
	ports []gens.GenIndex
}

// sampled picks a deterministic 1-in-64 of pool indices.
func sampled(idx int) bool { return mix64(uint64(idx))&63 == 0 }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// verify checks the last batch, pool pairs [off, off+len(lens)), against
// the reference route lengths and keeps the 1-in-64 replay sample.
func (c *caller) verify(in *inputs, off int, keep *[]sample) error {
	at := 0
	for i, ln := range c.lens {
		if want := in.ref[off+i]; ln != int32(want) {
			return fmt.Errorf("pair %d (%d→%d) routed in %d hops, reference %d", off+i, in.srcs[off+i], in.dsts[off+i], ln, want)
		}
		if sampled(off + i) {
			*keep = append(*keep, sample{idx: off + i, ports: append([]gens.GenIndex(nil), c.ports[at:at+int(ln)]...)})
		}
		at += int(ln)
	}
	return nil
}

// replay walks every sampled route from its source and counts the
// routes that do not end at their destination.
func replay(nw *core.Network, in *inputs, samples []sample) int {
	k := nw.K()
	u, v, got, tmp := make(perm.Perm, k), make(perm.Perm, k), make(perm.Perm, k), make(perm.Perm, k)
	bad := 0
	for _, s := range samples {
		perm.UnrankInto(u, in.srcs[s.idx])
		perm.UnrankInto(v, in.dsts[s.idx])
		nw.ReplayInto(got, tmp, u, s.ports)
		if !got.Equal(v) {
			bad++
		}
	}
	return bad
}
