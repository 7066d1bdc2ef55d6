package transport

import "melissa/internal/obs"

// Payload-pool telemetry: the PoolStats counters already exist as process
// atomics, so the metric layer is pure scrape-time gauge funcs — the pooled
// send/receive hot paths carry zero additional instrumentation cost.
func init() {
	obs.NewGaugeFunc("melissa_transport_pool_outstanding",
		"Live payload buffers: taken into transport custody but not yet recycled or dropped.",
		func() float64 { return float64(ReadPoolStats().Outstanding()) })
	obs.NewGaugeFunc("melissa_transport_pool_refs_active",
		"Live refcounted payload references (the server's shared-payload decode path).",
		func() float64 { return float64(ReadPoolStats().RefsActive()) })
	obs.NewGaugeFunc("melissa_transport_pool_gets_total",
		"Buffers the transport took custody of: sent payloads and TCP frame reads (monotonic).",
		func() float64 { return float64(ReadPoolStats().Gets) })
	obs.NewGaugeFunc("melissa_transport_pool_makes_total",
		"Payload-pool gets that allocated a fresh buffer (monotonic).",
		func() float64 { return float64(ReadPoolStats().Makes) })
}
