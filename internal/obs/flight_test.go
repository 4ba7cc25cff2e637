package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Test stages are registered once at package level (NewStage is
// idempotent, so re-runs within one process are fine).
var (
	stFlightA      = NewStage("flight_test_a")
	stFlightB      = NewStage("flight_test_b")
	stFlightHammer = NewStage("flight_test_hammer")
)

func TestFlightJourneySpansTile(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Rings: 2, SlotsPerRing: 8, Sample: 1, TailKeep: 4, Window: time.Hour})
	var j Journey
	r.Begin(&j, JourneyRoute)
	if !j.active {
		t.Fatal("journey inactive after Begin on an enabled recorder")
	}
	j.Mark(stFlightA)
	j.Mark(stFlightB)
	j.SetPairs(3)
	r.Finish(&j)
	if j.active {
		t.Fatal("journey still active after Finish")
	}

	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("snapshot has %d journeys, want 1 (1-in-1 sampling)", len(evs))
	}
	ev := evs[0]
	if ev.Kind != "route" || ev.Pairs != 3 || ev.Truncated {
		t.Fatalf("journey decoded wrong: %+v", ev)
	}
	if ev.Reason != "sampled" && ev.Reason != "slow+sampled" {
		t.Fatalf("1-in-1 sampled journey has reason %q", ev.Reason)
	}
	if len(ev.Spans) != 2 || ev.Spans[0].Stage != "flight_test_a" || ev.Spans[1].Stage != "flight_test_b" {
		t.Fatalf("spans decoded wrong: %+v", ev.Spans)
	}
	var sum int64
	for _, sp := range ev.Spans {
		sum += sp.DurNs
	}
	if sum != ev.TotalNs {
		t.Fatalf("spans sum to %dns but the journey took %dns — marks must tile the wall time", sum, ev.TotalNs)
	}
	if ev.Spans[0].StartNs != 0 || ev.Spans[1].StartNs != ev.Spans[0].DurNs {
		t.Fatalf("spans are not contiguous: %+v", ev.Spans)
	}
}

func TestFlightInactiveJourneyNoops(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Rings: 1, SlotsPerRing: 8, Sample: 1, TailKeep: 4, Window: time.Hour})
	var j Journey // zero value: never Begun
	j.Mark(stFlightA)
	j.SetPairs(7)
	r.Finish(&j)
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("inactive journey was retained (%d events)", got)
	}

	r.SetEnabled(false)
	r.Begin(&j, JourneyBulk)
	if j.active {
		t.Fatal("Begin on a disabled recorder activated the journey")
	}
}

// finishWithTotal fabricates a journey whose wall time is exactly d by
// rewinding its start — white-box, so tail arithmetic is deterministic.
func finishWithTotal(r *FlightRecorder, d int64) {
	var j Journey
	r.Begin(&j, JourneyOther)
	j.start = j.last - d
	r.Finish(&j)
}

func TestFlightTailRetention(t *testing.T) {
	// Sampling effectively off (1 in 2^30): only the tail filter retains.
	r := NewFlightRecorder(FlightConfig{Rings: 1, SlotsPerRing: 64, Sample: 1 << 30, TailKeep: 2, Window: time.Hour})
	finishWithTotal(r, 10_000)
	finishWithTotal(r, 20_000) // tail now full, threshold 10µs
	finishWithTotal(r, 30_000) // evicts 10µs from the window top-N, threshold 20µs
	finishWithTotal(r, 5_000)  // under threshold: forgotten

	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d journeys, want 3 (the three tail entries)", len(evs))
	}
	wantTotals := []int64{30_000, 20_000, 10_000} // slowest first
	for i, ev := range evs {
		if ev.TotalNs != wantTotals[i] {
			t.Errorf("event %d total = %dns, want %dns", i, ev.TotalNs, wantTotals[i])
		}
		if ev.Reason != "slow" {
			t.Errorf("event %d reason = %q, want slow", i, ev.Reason)
		}
	}
}

func TestFlightTailWindowRollover(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Rings: 1, SlotsPerRing: 64, Sample: 1 << 30, TailKeep: 2, Window: time.Hour})
	finishWithTotal(r, 1_000_000)
	finishWithTotal(r, 2_000_000)
	finishWithTotal(r, 50) // far under the 1ms threshold: dropped
	if got := len(r.Snapshot()); got != 2 {
		t.Fatalf("pre-rollover snapshot has %d journeys, want 2", got)
	}
	// Expire the window: the threshold must reset, so a modest journey
	// is tail again instead of inheriting the burst's bar.
	r.windowStart.Store(NowNs() - r.periodNs - 1)
	finishWithTotal(r, 50)
	if got := len(r.Snapshot()); got != 3 {
		t.Fatalf("post-rollover snapshot has %d journeys, want 3 — stale threshold survived the window", got)
	}
}

// TestFlightConcurrentHammer runs writers against snapshot readers —
// under -race this is the recorder's central safety claim — and then
// checks a quiesced recorder renders byte-identical output twice.
func TestFlightConcurrentHammer(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Rings: 4, SlotsPerRing: 16, Sample: 4, TailKeep: 8, Window: 50 * time.Millisecond})
	const writers, journeys = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var j Journey
			for i := 0; i < journeys; i++ {
				r.Begin(&j, JourneyBulk)
				j.Mark(stFlightHammer)
				j.SetPairs(i)
				r.Finish(&j)
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range r.Snapshot() {
					var sum int64
					for _, sp := range ev.Spans {
						sum += sp.DurNs
					}
					if !ev.Truncated && sum != ev.TotalNs {
						t.Errorf("torn journey escaped the seqlock: spans sum %dns, total %dns", sum, ev.TotalNs)
						return
					}
				}
				if tr := r.ChromeTrace(); !json.Valid(tr) {
					t.Errorf("mid-hammer ChromeTrace is invalid JSON")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Quiesced determinism: identical snapshots and traces, twice.
	if a, b := fmt.Sprint(r.Snapshot()), fmt.Sprint(r.Snapshot()); a != b {
		t.Error("quiesced Snapshot is not deterministic")
	}
	a, b := r.ChromeTrace(), r.ChromeTrace()
	if !bytes.Equal(a, b) {
		t.Error("quiesced ChromeTrace is not byte-identical across calls")
	}
	if !json.Valid(a) || !bytes.Contains(a, []byte(`"traceEvents"`)) {
		t.Errorf("ChromeTrace is not a trace-event document: %.120s", a)
	}
}

func TestFlightSamplingValidation(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{})
	for _, bad := range []uint64{0, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSampling(%d) did not panic", bad)
				}
			}()
			r.SetSampling(bad)
		}()
	}
}
