package serve

// Telemetry for the routing service, registered on obs.Default under
// the scg_serve_* prefix.  The request path records end-to-end service
// time (handler entry → response written) into a power-of-two
// histogram, so the /metrics endpoint and the windowed SLO gauges
// report p50/p99/p999 without any per-request allocation; the wait for
// a routing slot lands in the queue_wait stage's histogram.

import "supercayley/internal/obs"

var (
	mReqRoute = obs.Default.Counter("scg_serve_route_requests_total",
		"POST /route requests admitted and routed")
	mReqBulk = obs.Default.Counter("scg_serve_bulk_requests_total",
		"POST /route/bulk requests admitted and routed")
	mPairsAdmitted = obs.Default.Counter("scg_serve_pairs_admitted_total",
		"rank pairs admitted for routing")
	mPairsServed = obs.Default.Counter("scg_serve_pairs_served_total",
		"rank pairs routed and answered by the service")
	mRejAdmission = obs.Default.Counter("scg_serve_rejected_admission_total",
		"requests rejected 429 by the per-client token bucket")
	mRejQueueFull = obs.Default.Counter("scg_serve_rejected_queue_full_total",
		"requests rejected 429 because QueueJobs jobs already waited for a routing slot")
	mRejDraining = obs.Default.Counter("scg_serve_rejected_draining_total",
		"requests rejected 503 while the service was draining")
	mRejBadRequest = obs.Default.Counter("scg_serve_rejected_bad_request_total",
		"requests rejected 4xx before admission (method, codec, rank range, size)")
	hRequestNs = obs.Default.Pow2Hist("scg_serve_request_ns",
		"end-to-end service nanoseconds per admitted request (handler entry to response)")
)

// Request stages for the flight recorder.  A sampled request's
// journey tiles these marks contiguously — decode, admission, queue
// wait (for a routing slot), RouteManyInto, encode — so the spans sum
// exactly to the journey's wall time and the Chrome trace shows where
// every nanosecond went.
var (
	stDecode    = obs.NewStage("decode")
	stAdmission = obs.NewStage("admission")
	stQueueWait = obs.NewStage("queue_wait")
	stRouteMany = obs.NewStage("route_many")
	stEncode    = obs.NewStage("encode")
)

func init() {
	// Rolling-window quantiles and the serve SLO read this histogram's
	// per-window deltas.
	obs.Windows.Track("scg_serve_request_ns")
}
