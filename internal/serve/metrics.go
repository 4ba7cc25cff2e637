package serve

// Telemetry for the routing service, registered on obs.Default under
// the scg_serve_* prefix.  The request path records two latency
// timestamps per admitted job — queue wait (enqueue → flush pickup)
// and end-to-end service time (handler entry → response written) —
// into power-of-two histograms, so the /metrics endpoint and the
// windowed SLO gauges report p50/p99/p999 without any per-request
// allocation.
// Batch shape (pairs per flush) lands in its own histogram: its count
// is the flush total and its sum the admitted-pair total, which makes
// queue amortization visible as mean pairs per batch.

import "supercayley/internal/obs"

var (
	mReqRoute = obs.Default.Counter("scg_serve_route_requests_total",
		"POST /route requests accepted into the batching pipeline")
	mReqBulk = obs.Default.Counter("scg_serve_bulk_requests_total",
		"POST /route/bulk requests accepted into the batching pipeline")
	mPairsAdmitted = obs.Default.Counter("scg_serve_pairs_admitted_total",
		"rank pairs admitted into the batch queue")
	mPairsServed = obs.Default.Counter("scg_serve_pairs_served_total",
		"rank pairs routed and answered by the service")
	mRejAdmission = obs.Default.Counter("scg_serve_rejected_admission_total",
		"requests rejected 429 by the per-client token bucket")
	mRejQueueFull = obs.Default.Counter("scg_serve_rejected_queue_full_total",
		"requests rejected 429 because the bounded batch queue was full")
	mRejDraining = obs.Default.Counter("scg_serve_rejected_draining_total",
		"requests rejected 503 while the service was draining")
	mRejBadRequest = obs.Default.Counter("scg_serve_rejected_bad_request_total",
		"requests rejected 4xx before admission (method, codec, rank range, size)")
	mBatches = obs.Default.Counter("scg_serve_batches_total",
		"batch flushes executed by the pipeline workers")
	hBatchPairs = obs.Default.Pow2Hist("scg_serve_batch_pairs",
		"pairs per batch flush (count = flushes, sum = flushed pairs)")
	hQueueWaitNs = obs.Default.Pow2Hist("scg_serve_queue_wait_ns",
		"nanoseconds a job waited in the batch queue before its flush started")
	hRequestNs = obs.Default.Pow2Hist("scg_serve_request_ns",
		"end-to-end service nanoseconds per admitted request (handler entry to response)")
)

// Pipeline stages for the flight recorder.  A sampled request's
// journey tiles these marks contiguously — decode, admission, queue
// wait, batch wait (the worker's drain of already-queued jobs),
// RouteManyInto, resume, encode — so the spans sum exactly to the
// journey's wall time and the Chrome trace shows where every
// nanosecond went.
var (
	stDecode    = obs.NewStage("decode")
	stAdmission = obs.NewStage("admission")
	stQueueWait = obs.NewStage("queue_wait")
	stBatchWait = obs.NewStage("batch_wait")
	stRouteMany = obs.NewStage("route_many")
	stResume    = obs.NewStage("resume")
	stEncode    = obs.NewStage("encode")
)

func init() {
	// Rolling-window quantiles and the serve SLO read this histogram's
	// per-window deltas.
	obs.Windows.Track("scg_serve_request_ns")
}
