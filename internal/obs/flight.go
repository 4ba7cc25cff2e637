package obs

// The flight recorder: per-request journeys with tail-based sampling.
//
// Every request carries a Journey — a fixed-layout value embedded in
// the serve path's pooled Job (no pointer chasing, no interfaces,
// no maps).  Mark(stage) attributes the time since the previous mark
// to a named stage, so a journey's spans tile its wall time exactly;
// each mark also feeds the stage's scg_stage_<name>_ns histogram, so
// the aggregate per-stage view costs nothing extra.  Recording is
// allocation-free and lock-free on the happy path.
//
// Retention is tail-based: recording is cheap enough to do for every
// request, but only interesting journeys are kept — a deterministic
// 1-in-M hash sample of journey ids (the unbiased baseline) plus the
// slowest-N per rolling window (the tail that pages people).  Retained
// journeys are copied into per-worker rings of fixed word-packed
// slots; every slot word is a sync/atomic.Uint64 under a seqlock-style
// sequence, so concurrent snapshot readers are race-detector-clean
// without any lock on the write path.  A writer claims a slot by CAS
// on its (even) sequence; a writer that loses the claim — a wrapped
// cursor landing two writers on one slot — drops its journey and
// counts the drop rather than blocking.
//
// Invariants:
//   - slot seq is even when stable, odd while a writer owns it; a
//     reader copies the payload words and keeps the copy only when the
//     seq it re-reads equals the even seq it started from;
//   - span offsets/durations tile [0, total]: sum(dur) == total for
//     untruncated journeys, by construction of Mark;
//   - the tail threshold only rises within a window and resets to 0
//     when the window rolls, so a quiet period cannot inherit a stale
//     threshold from a burst.

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxJourneySpans bounds the spans one journey retains; later marks
// still feed the stage histograms but the journey is flagged
// truncated.  The serve path uses 5 stages per request, so 24 leaves
// headroom for deeper instrumentation.
const MaxJourneySpans = 24

// Journey kinds (what the request was).
const (
	JourneyOther uint8 = iota
	JourneyRoute
	JourneyBulk
)

// Retention reasons.
const (
	retainSlow    uint8 = 1
	retainSampled uint8 = 2
)

// flightEpoch anchors journey clocks: all times are monotonic
// nanoseconds since process start, so packed offsets stay small.
var flightEpoch = time.Now()

// NowNs returns monotonic nanoseconds since process start — the
// clock journeys and the sampled stage timers share.
//
//scg:noalloc
func NowNs() int64 { return int64(time.Now().Sub(flightEpoch)) }

// flightSpan is one recorded stage interval, offsets relative to the
// journey start.
type flightSpan struct {
	stage Stage
	start int64
	dur   int64
}

// Journey is the per-request recording surface.  The zero value is
// inactive: Mark and Finish on it are no-ops, so jobs submitted by
// callers that never Begin (tests, internal traffic) record nothing.
type Journey struct {
	id     uint64
	start  int64
	last   int64
	kind   uint8
	active bool
	trunc  bool
	n      uint8
	slot   int32
	pairs  int32
	spans  [MaxJourneySpans]flightSpan
}

// Cancel deactivates the journey without retaining anything; pooled
// jobs call it on Reset so a recycled journey cannot leak marks.
//
//scg:noalloc
func (j *Journey) Cancel() { j.active = false }

// SetPairs annotates the journey with its pair count.
//
//scg:noalloc
func (j *Journey) SetPairs(n int) { j.pairs = int32(n) }

// Mark attributes the time since the previous mark (or Begin) to
// stage: the journey's spans tile its wall time with no gaps.  Each
// mark also observes the duration on the stage's histogram.  A
// journey is not synchronized: marks from different goroutines need a
// handoff that already orders them (a channel send/receive).  The
// serve handlers mark every stage on the request's own goroutine.
//
//scg:noalloc
func (j *Journey) Mark(s Stage) {
	if !j.active {
		return
	}
	now := NowNs()
	d := now - j.last
	if d < 0 {
		d = 0
	}
	if int(j.n) < MaxJourneySpans {
		sp := &j.spans[j.n]
		sp.stage, sp.start, sp.dur = s, j.last-j.start, d
		j.n++
	} else {
		j.trunc = true
	}
	j.last = now
	s.Observe(int(j.slot), uint64(d))
}

// Word-packed retained-journey slot layout:
//
//	word 0: journey id
//	word 1: kind(8) | reason(8) | nspans(8) | truncated(8) | pairs(32)
//	word 2: start (ns since flightEpoch)
//	word 3: total (ns)
//	word 4+2i: stage(8) << 56 | span start offset (56 bits)
//	word 5+2i: span duration (ns)
const flightWords = 4 + 2*MaxJourneySpans

// flightSlot is one seqlock-protected retained journey.  seq is even
// when stable (0 = never written), odd while a writer owns the slot.
type flightSlot struct {
	seq   atomic.Uint64
	words [flightWords]atomic.Uint64
}

// flightRing is one per-worker ring: a cursor handing out slot
// indices plus the slots themselves, padded so two rings' cursors
// never share a cache line.
type flightRing struct {
	cursor atomic.Uint64
	_      [56]byte
	slots  []flightSlot
}

// FlightConfig sizes a recorder; zero fields take defaults.
type FlightConfig struct {
	Rings        int           // per-worker rings (default 8)
	SlotsPerRing int           // retained journeys per ring, power of two (default 64)
	Sample       uint64        // deterministic 1-in-Sample id sample, power of two (default 64)
	TailKeep     int           // slowest-N retained per window (default 16, max 64)
	Window       time.Duration // tail window length (default 1s)
	Seed         uint64        // sampling seed (default a fixed constant)
}

// maxTailKeep bounds the top-N scratch so tail maintenance never
// allocates.
const maxTailKeep = 64

// FlightRecorder retains sampled and slow journeys in per-worker
// rings.  The hot half — Begin, Mark, Finish — is allocation-free and
// annotated //scg:noalloc; Snapshot and ChromeTrace are the cold half.
type FlightRecorder struct {
	enabled  atomic.Uint32
	ids      atomic.Uint64
	shift    atomic.Uint64 // sample when ((id^seed)*phi64)>>shift == 0
	seed     uint64        // immutable after construction
	periodNs int64
	tailKeep int
	ringMask uint64
	slotMask uint64
	rings    []flightRing

	windowStart atomic.Int64
	threshold   atomic.Int64 // min duration of the current window's top-N once full

	tail struct {
		mu   sync.Mutex
		durs [maxTailKeep]int64
		n    int
	}
}

// NewFlightRecorder builds a recorder; ring and sample sizes must be
// powers of two.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Rings == 0 {
		cfg.Rings = 8
	}
	if cfg.SlotsPerRing == 0 {
		cfg.SlotsPerRing = 64
	}
	if cfg.Sample == 0 {
		cfg.Sample = 64
	}
	if cfg.TailKeep == 0 {
		cfg.TailKeep = 16
	}
	if cfg.Window == 0 {
		cfg.Window = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xf1e8b1e5eed
	}
	if cfg.Rings&(cfg.Rings-1) != 0 || cfg.SlotsPerRing&(cfg.SlotsPerRing-1) != 0 {
		panic("obs: flight recorder ring counts must be powers of two")
	}
	if cfg.Sample&(cfg.Sample-1) != 0 {
		panic("obs: flight recorder sample interval must be a power of two")
	}
	if cfg.TailKeep > maxTailKeep {
		panic("obs: flight recorder TailKeep exceeds the fixed tail scratch")
	}
	r := &FlightRecorder{
		seed:     cfg.Seed,
		periodNs: cfg.Window.Nanoseconds(),
		tailKeep: cfg.TailKeep,
		ringMask: uint64(cfg.Rings - 1),
		slotMask: uint64(cfg.SlotsPerRing - 1),
		rings:    make([]flightRing, cfg.Rings),
	}
	for i := range r.rings {
		r.rings[i].slots = make([]flightSlot, cfg.SlotsPerRing)
	}
	r.setSample(cfg.Sample)
	r.enabled.Store(1)
	r.windowStart.Store(NowNs())
	return r
}

// Flight is the process-wide recorder the serve handlers record into
// and `scg serve` exposes at /trace/requests and /trace/chrome.
var Flight = NewFlightRecorder(FlightConfig{})

// Flight retention counters (journeys seen, retained by reason,
// dropped on a slot-claim collision).
var (
	mJourneys       = Default.Counter("scg_flight_journeys_total", "request journeys finished by the flight recorder")
	mJourneySampled = Default.Counter("scg_flight_retained_sampled_total", "journeys retained by the deterministic 1-in-M sample")
	mJourneySlow    = Default.Counter("scg_flight_retained_slow_total", "journeys retained as window tail (slowest-N)")
	mJourneyDropped = Default.Counter("scg_flight_dropped_total", "retained journeys dropped on a ring slot collision")
)

func (r *FlightRecorder) setSample(interval uint64) {
	// Keep an id iff the top log2(interval) hash bits are zero; an
	// interval of 1 shifts by 64, which in Go yields 0 — every id.
	r.shift.Store(uint64(64 - bits.TrailingZeros64(interval)))
}

// SetSampling changes the deterministic baseline sample to one journey
// in interval (a power of two; 1 retains every journey).
func (r *FlightRecorder) SetSampling(interval uint64) {
	if interval == 0 || interval&(interval-1) != 0 {
		panic("obs: flight sampling interval must be a power of two")
	}
	r.setSample(interval)
}

// SetEnabled switches journey recording on or off (for overhead
// bracketing; the recorder defaults to on).
func (r *FlightRecorder) SetEnabled(on bool) {
	v := uint32(0)
	if on {
		v = 1
	}
	r.enabled.Store(v)
}

// Begin activates j as a new journey of the given kind.  The journey
// stripes its stage observations by its own id, so callers need not
// pick a slot.
//
//scg:noalloc
func (r *FlightRecorder) Begin(j *Journey, kind uint8) {
	if !Enabled() || r.enabled.Load() == 0 {
		j.active = false
		return
	}
	id := r.ids.Add(1)
	now := NowNs()
	j.id = id
	j.start, j.last = now, now
	j.kind = kind
	j.slot = int32(id & r.ringMask)
	j.n, j.pairs = 0, 0
	j.trunc = false
	j.active = true
}

// Finish closes the journey and decides retention: the deterministic
// id sample keeps an unbiased 1-in-M baseline, the tail filter keeps
// the slowest-N of the rolling window.  Either reason copies the
// journey into its ring; everything else is forgotten for free.
//
//scg:noalloc
func (r *FlightRecorder) Finish(j *Journey) {
	if !j.active {
		return
	}
	j.active = false
	total := j.last - j.start
	mJourneys.IncAt(int(j.slot))
	var reason uint8
	if ((j.id^r.seed)*phi64)>>r.shift.Load() == 0 {
		reason |= retainSampled
		mJourneySampled.IncAt(int(j.slot))
	}
	if r.tailNote(total) {
		reason |= retainSlow
		mJourneySlow.IncAt(int(j.slot))
	}
	if reason == 0 {
		return
	}
	r.retain(j, total, reason)
}

// tailNote records total against the rolling window's top-N and
// reports whether it belongs there.  The window is checked on every
// finish (one atomic load) so a stale threshold from a past burst
// cannot outlive its window.
//
//scg:noalloc
func (r *FlightRecorder) tailNote(total int64) bool {
	now := NowNs()
	ws := r.windowStart.Load()
	if now-ws >= r.periodNs {
		r.tail.mu.Lock()
		if r.windowStart.Load() == ws { // we won the rotation
			r.tail.n = 0
			r.threshold.Store(0)
			r.windowStart.Store(now)
		}
		r.tail.mu.Unlock()
	}
	if total < r.threshold.Load() {
		return false
	}
	keep := false
	r.tail.mu.Lock()
	if r.tail.n < r.tailKeep {
		r.tail.durs[r.tail.n] = total
		r.tail.n++
		keep = true
	} else {
		mi := 0
		for i := 1; i < r.tail.n; i++ {
			if r.tail.durs[i] < r.tail.durs[mi] {
				mi = i
			}
		}
		if total > r.tail.durs[mi] {
			r.tail.durs[mi] = total
			keep = true
		}
	}
	if r.tail.n == r.tailKeep {
		mn := r.tail.durs[0]
		for i := 1; i < r.tail.n; i++ {
			if r.tail.durs[i] < mn {
				mn = r.tail.durs[i]
			}
		}
		r.threshold.Store(mn)
	}
	r.tail.mu.Unlock()
	return keep
}

// retain copies the journey into a ring slot under the slot seqlock.
//
//scg:noalloc
func (r *FlightRecorder) retain(j *Journey, total int64, reason uint8) {
	ring := &r.rings[uint64(j.slot)&r.ringMask]
	idx := ring.cursor.Add(1) - 1
	s := &ring.slots[idx&r.slotMask]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		mJourneyDropped.IncAt(int(j.slot))
		return
	}
	var trunc uint64
	if j.trunc {
		trunc = 1
	}
	s.words[0].Store(j.id)
	s.words[1].Store(uint64(j.kind) | uint64(reason)<<8 | uint64(j.n)<<16 |
		trunc<<24 | uint64(uint32(j.pairs))<<32)
	s.words[2].Store(uint64(j.start))
	s.words[3].Store(uint64(total))
	for i := 0; i < int(j.n); i++ {
		sp := &j.spans[i]
		s.words[4+2*i].Store(uint64(sp.stage)<<56 | uint64(sp.start)&(1<<56-1))
		s.words[5+2*i].Store(uint64(sp.dur))
	}
	s.seq.Store(seq + 2)
}

// SpanEvent is one stage interval of a retained journey.
type SpanEvent struct {
	Stage   string `json:"stage"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// JourneyEvent is one retained journey in a snapshot.  Spans tile
// [0, TotalNs] contiguously unless Truncated.
type JourneyEvent struct {
	ID        uint64      `json:"id"`
	Kind      string      `json:"kind"`
	Reason    string      `json:"reason"`
	Pairs     int         `json:"pairs"`
	StartNs   int64       `json:"start_ns"`
	TotalNs   int64       `json:"total_ns"`
	Truncated bool        `json:"truncated,omitempty"`
	Spans     []SpanEvent `json:"spans"`
}

func journeyKindName(k uint8) string {
	switch k {
	case JourneyRoute:
		return "route"
	case JourneyBulk:
		return "bulk"
	default:
		return "other"
	}
}

func retainReasonName(r uint8) string {
	switch {
	case r&retainSlow != 0 && r&retainSampled != 0:
		return "slow+sampled"
	case r&retainSlow != 0:
		return "slow"
	case r&retainSampled != 0:
		return "sampled"
	default:
		return "none"
	}
}

// Snapshot decodes every stably retained journey, slowest first (ties
// by id).  Slots a writer owns mid-copy are retried a few times and
// then skipped; a quiesced recorder snapshots deterministically.
func (r *FlightRecorder) Snapshot() []JourneyEvent {
	var out []JourneyEvent
	var w [flightWords]uint64
	for ri := range r.rings {
		ring := &r.rings[ri]
		for si := range ring.slots {
			s := &ring.slots[si]
			for attempt := 0; attempt < 8; attempt++ {
				seq := s.seq.Load()
				if seq == 0 {
					break // never written
				}
				if seq&1 != 0 {
					continue // writer mid-copy; retry
				}
				for i := range w {
					w[i] = s.words[i].Load()
				}
				if s.seq.Load() != seq {
					continue // overwritten mid-read; retry
				}
				out = append(out, decodeJourney(&w))
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func decodeJourney(w *[flightWords]uint64) JourneyEvent {
	meta := w[1]
	n := int(meta >> 16 & 0xff)
	ev := JourneyEvent{
		ID:        w[0],
		Kind:      journeyKindName(uint8(meta & 0xff)),
		Reason:    retainReasonName(uint8(meta >> 8 & 0xff)),
		Pairs:     int(int32(uint32(meta >> 32))),
		StartNs:   int64(w[2]),
		TotalNs:   int64(w[3]),
		Truncated: meta>>24&1 == 1,
		Spans:     make([]SpanEvent, n),
	}
	for i := 0; i < n; i++ {
		packed := w[4+2*i]
		ev.Spans[i] = SpanEvent{
			Stage:   Stage(packed >> 56).Name(),
			StartNs: int64(packed & (1<<56 - 1)),
			DurNs:   int64(w[5+2*i]),
		}
	}
	return ev
}

// ChromeTrace renders the snapshot in the Chrome trace-event format
// (load it in chrome://tracing or Perfetto): one complete event per
// journey plus one per span, each journey on its own tid so journeys
// stack visually.  Timestamps are microseconds since process start.
func (r *FlightRecorder) ChromeTrace() []byte {
	evs := r.Snapshot()
	var buf bytes.Buffer
	buf.WriteString(`{"traceEvents":[`)
	first := true
	emit := func(name string, ts, dur int64, tid int, args string) {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		buf.WriteString(`{"name":`)
		nameJSON, _ := json.Marshal(name)
		buf.Write(nameJSON)
		buf.WriteString(`,"ph":"X","pid":1,"tid":`)
		buf.WriteString(strconv.Itoa(tid))
		buf.WriteString(`,"ts":`)
		writeMicros(&buf, ts)
		buf.WriteString(`,"dur":`)
		writeMicros(&buf, dur)
		if args != "" {
			buf.WriteString(`,"args":` + args)
		}
		buf.WriteByte('}')
	}
	for ti, ev := range evs {
		tid := ti + 1
		args := `{"id":` + strconv.FormatUint(ev.ID, 10) +
			`,"reason":"` + ev.Reason + `","pairs":` + strconv.Itoa(ev.Pairs) + `}`
		emit(ev.Kind, ev.StartNs, ev.TotalNs, tid, args)
		for _, sp := range ev.Spans {
			emit(sp.Stage, ev.StartNs+sp.StartNs, sp.DurNs, tid, "")
		}
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// writeMicros writes ns as a decimal microsecond count with
// nanosecond resolution kept in three fraction digits.
func writeMicros(buf *bytes.Buffer, ns int64) {
	buf.WriteString(strconv.FormatInt(ns/1e3, 10))
	if frac := ns % 1e3; frac != 0 {
		buf.WriteByte('.')
		s := strconv.FormatInt(frac, 10)
		for len(s) < 3 {
			s = "0" + s
		}
		buf.WriteString(s)
	}
}

func init() {
	// Ride the same expvar surface as the metrics registry and the
	// route tracer.
	expvar.Publish("scg_flight", expvar.Func(func() any { return Flight.Snapshot() }))
}
