// Command e2ebench is the repository's end-to-end benchmark. In one
// process it builds the stack adplatformd runs in router mode — the edge
// gateway wrapping the public HTTP API on a loopback listener, in front of
// a cluster coordinator over two remote shards, each an RPC server on its
// own loopback listener — and drives it over HTTP from at most GOMAXPROCS
// sender goroutines and connections, checking every answer.
//
//	e2ebench --workload churn|advertiser --seed N --seconds S --trace 0|1 [--smoke]
//
// Run it through run.sh from the repository root, which builds it from the
// checkout's sources first. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured on the stack exactly as the
// daemon wires it; with --trace 1 a separate traced run reports the
// per-layer ones, timed by wrappers over the public seams. See
// BENCHMARK.json at the repository root for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/treads-project/treads/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	dir      string
}

func parseFlags(args []string) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: churn or advertiser")
	fs.Uint64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny population and one setup, for a quick end-to-end check")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory the shard journals are written under")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	o.trace = traceFlag == 1
	return o, nil
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run shape. Setup is repeated setupRuns times and setup_s is the median;
// the last world built is the one measured.
const (
	setupRuns = 3
	warmup    = 3 * time.Second
)

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	s, err := workloads(o.workload, o.smoke)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.dir, "e2ebench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	senders := runtime.GOMAXPROCS(0)

	var rec *recorder
	runs := setupRuns
	if o.trace {
		rec = newRecorder()
		runs = 1
	}
	if o.smoke {
		runs = 1
	}
	var w *world
	var setups []time.Duration
	for i := 0; i < runs; i++ {
		if w != nil {
			if err := w.st.close(); err != nil {
				return err
			}
			w = nil
			runtime.GC()
		}
		start := time.Now()
		w, err = setup(s, o.seed, filepath.Join(dir, fmt.Sprint(i)), rec)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them, so the reading holds only reachable state.
	runtime.GC()
	runtime.GC()
	heapLive := readMetric("/gc/heap/live:bytes")
	t0 := time.Now()
	if err := w.buildReachOracle(o.seed); err != nil {
		w.st.close()
		return fmt.Errorf("building the reach oracle: %w", err)
	}
	// The oracle is garbage now; collect it here rather than in the
	// first measured rounds.
	runtime.GC()

	d := newLoadgen(w, senders)
	measured := time.Duration(o.seconds) * time.Second
	t1 := time.Now()
	steal1, ticks1, stealOK := cpuTicks()
	d.closedLoop(gens(&s, o.seed+1, senders), warmup, nil)

	res := result{Metrics: make(map[string]metric)}
	var all phase
	var facts map[string]any
	var bad []string
	if o.trace {
		facts, bad = tracedRun(d, rec, &s, o.seed, measured, senders, &res, &all)
	} else {
		facts = e2eRun(d, &s, o.seed, measured, senders, setups, heapLive, &res, &all)
	}

	t2 := time.Now()
	steal2, ticks2, _ := cpuTicks()
	bad = append(bad, d.finalChecks()...)
	t3 := time.Now()
	d.close()
	if err := w.st.close(); err != nil {
		bad = append(bad, fmt.Sprintf("closing the stack: %v", err))
	}
	if p := d.firstErr.Load(); p != nil {
		bad = append(bad, "first failed request: "+*p)
	}
	res.Attempted = all.attempted
	res.Failed = all.failed
	res.Correct = len(bad) == 0 && all.failed == 0

	prov := provenance(o, &s, senders)
	prov["phase_s"] = map[string]float64{"oracle": t1.Sub(t0).Seconds(), "measured": t2.Sub(t1).Seconds(),
		"checks": t3.Sub(t2).Seconds(), "teardown": time.Since(t3).Seconds()}
	if stealOK && ticks2 > ticks1 {
		// A share of the machine's CPU time taken by other guests while
		// the run measured: runs that met a busy neighbour show it here.
		prov["cpu_steal_share"] = float64(steal2-steal1) / float64(ticks2-ticks1)
	}
	for k, v := range facts {
		prov[k] = v
	}
	if len(bad) > 0 {
		prov["violations"] = bad
	}
	line, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return fmt.Errorf("correctness checks failed: %d violations, %d failed requests", len(bad), all.failed)
	}
	return nil
}

// gens returns n closed-loop request generators.
func gens(s *spec, seed uint64, n int) []func() request {
	out := make([]func() request, n)
	for c := range out {
		out[c] = s.closedGen(seed, seed, c)
	}
	return out
}

// roundLength is the length of one round: an open-loop window followed
// by a closed-loop slice. A run measures one round per roundLength of
// --seconds, so both phases spread over the whole run.
const roundLength = 2 * time.Second

// Latency is gated at the median only. On a shared 2-core machine the
// p90, p95 and p99 of one run's open loop moved by 30-180% across seeds
// and drifted with the load of the machine's other tenants: a run holds
// only a few GC cycles of the 270 MB advertiser heap and a few disk
// stalls under the journaled workload. That is past the largest bound
// (25%) a metric may have, so the tails are reported, with their sample
// counts, in the provenance line and not gated.
var tailQuantiles = []struct {
	name string
	q    float64
}{{"p90_ms", 0.90}, {"p95_ms", 0.95}, {"p99_ms", 0.99}}

// e2eRun measures the end-to-end metrics: rounds of an open-loop window
// at the workload's fixed rates, then a closed-loop slice with one client
// per sender. Each class's median pools every window's latencies.
func e2eRun(d *loadgen, s *spec, seed uint64, measured time.Duration, senders int, setups []time.Duration, heapLive float64, res *result, all *phase) map[string]any {
	rounds := max(1, int(measured/roundLength))
	openDur := measured * 60 / 100
	share := roundShares(seed, rounds)
	sched := s.schedule(seed, openDur)
	clients := gens(s, seed+2, senders)
	rates := make([]float64, rounds) // each slice's answered ops per second
	var open, closed phase
	var from time.Duration
	for k := 0; k < rounds; k++ {
		to := from + time.Duration(share[k]*float64(openDur))
		if k == rounds-1 {
			to = openDur
		}
		o := d.openLoop(slice(sched, from, to), senders)
		from = to
		c := d.closedLoop(clients, time.Duration(share[k]*float64(measured-openDur)), nil)
		rates[k] = float64(c.attempted-c.failed) / c.elapsed.Seconds()
		open.merge(&o)
		closed.merge(&c)
		closed.elapsed += c.elapsed
	}
	all.merge(&open)
	all.merge(&closed)

	m := res.Metrics
	m["setup_s"] = metric{median(setups).Seconds(), "s"}
	m["throughput_ops_s"] = metric{fasterHalfMean(rates), "ops/s"}
	tails := make(map[string]map[string]float64)
	for c := class(0); c < numClasses; c++ {
		lat := open.lat[c]
		name := classNames[c]
		m[name+"_p50_ms"] = metric{ms(quantile(lat, 0.5)), "ms"}
		tails[name] = map[string]float64{"samples": float64(len(lat))}
		for _, t := range tailQuantiles {
			tails[name][t.name] = ms(quantile(lat, t.q))
		}
	}
	// success_ratio is 1 in every valid run, since any failure fails the
	// run; it is reported, not a live gate.
	m["success_ratio"] = metric{1 - float64(all.failed)/float64(max(all.attempted, 1)), "ratio"}
	slots, filled := d.slots, d.filled
	if slots == 0 {
		// The advertiser workload's timed traffic browses nothing; its
		// fill is that of the setup's delivery pass.
		slots, filled = d.w.setupSlots, d.w.setupFilled
	}
	m["fill_ratio"] = metric{float64(filled) / float64(max(slots, 1)), "ratio"}
	m["heap_live_mb"] = metric{heapLive / (1 << 20), "MB"}
	return map[string]any{
		"open_loop":       tails,
		"rounds":          rounds,
		"slice_ops_s":     rates,
		"closed_loop_ops": closed.attempted,
		"pooled_ops_s":    float64(closed.attempted-closed.failed) / closed.elapsed.Seconds(),
		"setup_runs_s":    seconds(setups),
		"gen_late_p99_ms": ms(quantile(open.late, 0.99)),
	}
}

// fasterHalfMean is the mean of the faster half of the slices' rates. A
// slice that a GC cycle of the 270 MB advertiser heap, a disk stall or a
// busy neighbour on the host hits runs slower, and such events hit a
// varying share of each run's slices: over ten advertiser seeds with rounds
// of one length, the faster half's mean spread 16%, the median slice 20%
// and the pooled rate 29%. The program's own GC cost still shows when it
// hits more slices, and in full in the traced run's runtime.gc_cpu_fraction.
func fasterHalfMean(rates []float64) float64 {
	xs := append([]float64(nil), rates...)
	sort.Float64s(xs)
	fast := xs[len(xs)/2:]
	var sum float64
	for _, x := range fast {
		sum += x
	}
	return sum / float64(len(fast))
}

// roundShares returns each round's share of the run: seeded, between a
// third and five thirds of an even share. With rounds of one length the
// advertiser's GC cycles, about two rounds apart under load, locked onto
// the rounds' rhythm and hit every other closed-loop slice for a whole run
// or missed it for a whole run; uneven rounds keep them from locking on.
func roundShares(seed uint64, rounds int) []float64 {
	rng := stats.NewRNG(stats.SubSeed(seed, 500))
	share := make([]float64, rounds)
	var sum float64
	for k := range share {
		share[k] = 1.0/3 + 4.0/3*rng.Float64()
		sum += share[k]
	}
	for k := range share {
		share[k] /= sum
	}
	return share
}

// slice returns the arrivals due in [from, to), re-based to from.
func slice(sched []arrival, from, to time.Duration) []arrival {
	var out []arrival
	for _, a := range sched {
		if a.due >= from && a.due < to {
			a.due -= from
			out = append(out, a)
		}
	}
	return out
}

func median(xs []time.Duration) time.Duration {
	ys := append([]time.Duration(nil), xs...)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	return ys[len(ys)/2]
}

func seconds(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.Seconds()
	}
	return out
}

// readMetric reads one scalar from runtime/metrics.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
