package main

import (
	"runtime/metrics"
	"time"

	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/trace"
)

// tracedRun produces the per-layer metrics. It runs the open-loop phase
// untraced (for the generator's lateness and the runtime's GC figures),
// then two single-client closed loops of equal length over the same
// sequence of ops: the first with the wrappers idle and the daemon's 1%
// sampling, the second with every wrapper recording and every request
// sampled. The second is the traced run; the difference between the two
// over the requests both sent is the tracing overhead. One client keeps
// exactly one request in flight, which is how the wrappers, most of whose
// calls carry no context, know which request a call belongs to.
func tracedRun(d *loadgen, rec *recorder, s *spec, seed uint64, measured time.Duration, senders int, res *result, all *phase) (map[string]any, []string) {
	openDur := measured / 2
	rt0 := readRuntime()
	open := d.openLoop(s.schedule(seed, openDur), senders)
	rt1 := readRuntime()
	all.merge(&open)

	// timeEach records each request's latency, in order, and marks it as
	// a sender call while the recorder is on.
	timeEach := func(lats *[]time.Duration) func() func() {
		return func() func() {
			end := rec.clientCall()
			t0 := time.Now()
			return func() {
				*lats = append(*lats, time.Since(t0))
				end()
			}
		}
	}
	half := (measured - openDur) / 2
	var baseLat, tracedLat []time.Duration
	base := d.closedLoop([]func() request{s.closedGen(seed+3, seed+3, 0)}, half, timeEach(&baseLat))
	all.merge(&base)

	st := d.w.st
	appends0, retries0 := appends(st), retries(st)
	configureTracing(seed, 1, 1<<17)
	rec.on.Store(true)
	// The same ops as the untraced loop, sent for other users: the same
	// users again would meet the frequency caps their first browses hit.
	traced := d.closedLoop([]func() request{s.closedGen(seed+3, seed+4, 0)}, half, timeEach(&tracedLat))
	rec.on.Store(false)
	program := trace.Default.Snapshot()
	configureTracing(seed, traceSample, traceRing)
	all.merge(&traced)
	appendsN := float64(appends(st) - appends0)

	a := rec.attribute(program, s.journaled)
	n := min(len(baseLat), len(tracedLat))
	mean := func(lats []time.Duration) float64 {
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		return meanUS(sum, len(lats))
	}
	perAppend := func(x float64) float64 {
		if appendsN == 0 {
			return 0
		}
		return x / appendsN
	}
	fsyncs := rec.fsyncs.Load()

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("gateway.self_us", a.perRequest(a.self[layerEdge]), "us")
	put("gateway.refused_ratio", float64(d.refused.Load())/float64(max(all.attempted, 1)), "ratio")
	put("httpapi.self_us", a.perRequest(a.self[layerAPI]), "us")
	put("cluster.self_us", a.perRequest(a.self[layerCluster]), "us")
	put("cluster.shard_calls_per_req", float64(a.shardCalls)/float64(max(a.requests, 1)), "calls/req")
	put("rpc.self_us", a.perRequest(a.self[layerRPC]), "us")
	put("rpc.wire_bytes_per_call", float64(rec.wireBytes.Load())/float64(max(rec.rpcAttempts.Load(), 1)), "B/call")
	put("rpc.retries", float64(retries(st)-retries0), "count")
	put("platform.self_us", a.perRequest(a.self[layerPlatform]), "us")
	put("platform.browse_us", meanUS(a.opTime[opBrowse], a.opCount[opBrowse]), "us")
	put("platform.user_write_us", meanUS(a.opTime[opUserWrite], a.opCount[opUserWrite]), "us")
	put("platform.raw_reach_us", meanUS(a.opTime[opRawReach], a.opCount[opRawReach]), "us")
	put("platform.mutation_us", meanUS(a.opTime[opMutation], a.opCount[opMutation]), "us")
	put("delivery.browse_us", meanUS(a.deliverySelf, a.deliverySpans), "us")
	put("journal.append_self_us", meanUS(a.journalSelf, a.journalSpans), "us")
	put("journal.fsync_us", meanUS(time.Duration(rec.fsyncNanos.Load()), int(fsyncs)), "us")
	put("journal.fsyncs_per_append", perAppend(float64(fsyncs)), "ratio")
	put("journal.bytes_per_append", perAppend(float64(rec.walBytes.Load())), "B")
	put("runtime.gc_pause_ms", ms(rt1.maxPauseSince(rt0)), "ms")
	put("runtime.gc_cpu_fraction", rt1.gcFractionSince(rt0), "ratio")
	put("gen.late_p99_ms", ms(quantile(open.late, 0.99)), "ms")
	put("trace.edge_us", meanUS(a.edge, a.requests), "us")
	put("trace.overhead_us", mean(tracedLat[:n])-mean(baseLat[:n]), "us")
	put("transport.self_us", a.transportUS(), "us")

	return map[string]any{
		"traced_requests": a.requests,
		"traced_calls":    len(tracedLat),
		"edge_share_min":  edgeShareMin,
	}, a.check()
}

// appends counts records appended to the shard journals so far.
func appends(st *stack) uint64 {
	var n uint64
	for _, b := range st.backends {
		if jp, ok := b.(*platform.Journaled); ok {
			n += jp.LastLSN()
		}
	}
	return n
}

// retries sums the RPC clients' retry counters.
func retries(st *stack) uint64 {
	vec := st.reg.CounterVec("rpc_client_retries_total", "", "peer")
	var n uint64
	for _, c := range st.clients {
		n += vec.With(c.Peer()).Value()
	}
	return n
}

// runtimeSample is a reading of the runtime's GC accounting.
type runtimeSample struct {
	pauses   *metrics.Float64Histogram
	gcCPU    float64
	totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{pauses: s[0].Value.Float64Histogram(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// maxPauseSince returns the upper bound of the highest pause bucket that
// gained a sample since r0.
func (r runtimeSample) maxPauseSince(r0 runtimeSample) time.Duration {
	for i := len(r.pauses.Counts) - 1; i >= 0; i-- {
		if r.pauses.Counts[i] > r0.pauses.Counts[i] {
			return time.Duration(r.pauses.Buckets[i+1] * float64(time.Second))
		}
	}
	return 0
}

func (r runtimeSample) gcFractionSince(r0 runtimeSample) float64 {
	if d := r.totalCPU - r0.totalCPU; d > 0 {
		return (r.gcCPU - r0.gcCPU) / d
	}
	return 0
}
