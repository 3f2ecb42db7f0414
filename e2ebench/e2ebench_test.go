package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/trace"
)

// methodSet maps each method of t to its signature without the receiver.
func methodSet(t reflect.Type) map[string]string {
	out := make(map[string]string, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		var sig strings.Builder
		for j := 1; j < m.Type.NumIn(); j++ {
			fmt.Fprintf(&sig, "%v,", m.Type.In(j))
		}
		sig.WriteString("->")
		for j := 0; j < m.Type.NumOut(); j++ {
			fmt.Fprintf(&sig, "%v,", m.Type.Out(j))
		}
		out[m.Name] = sig.String()
	}
	return out
}

// The optional interfaces the program probes its seams for.
var optional = map[string]reflect.Type{
	"BrowseFeedCtx": reflect.TypeOf((*interface {
		BrowseFeedCtx(context.Context, profile.UserID, int) ([]ad.Impression, error)
	})(nil)).Elem(),
	"HealthReporter":      reflect.TypeOf((*cluster.HealthReporter)(nil)).Elem(),
	"WriteHealthReporter": reflect.TypeOf((*cluster.WriteHealthReporter)(nil)).Elem(),
	"TraceSpans": reflect.TypeOf((*interface {
		TraceSpans(context.Context) ([]trace.SpanWire, error)
	})(nil)).Elem(),
	"Close":                reflect.TypeOf((*io.Closer)(nil)).Elem(),
	"CloseIdleConnections": reflect.TypeOf((*interface{ CloseIdleConnections() })(nil)).Elem(),
}

// TestWrappersKeepMethodSets: every wrapper has exactly the method set of
// the value it wraps, so it satisfies the same optional interfaces and
// the program takes the same code paths with or without it.
func TestWrappersKeepMethodSets(t *testing.T) {
	rec := newRecorder()
	p := platform.New(platform.Config{Seed: 1})
	jp, err := platform.OpenJournaled(t.TempDir(), journal.Options{NoSync: true}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: 1}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jp.Close()
	remote := cluster.NewRemoteShard(rpc.NewClient("http://127.0.0.1:1", rpc.Options{}))
	clu, err := cluster.New([]cluster.Shard{p}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := defaultRPCTransport()
	cases := []struct {
		name          string
		plain, tapped any
	}{
		{"cluster", clu, rec.wrapCluster(clu)},
		{"remote shard", remote, rec.wrapShard(remote, 0)},
		{"journaled platform", jp, rec.wrapBackend(jp, 0)},
		{"in-memory platform", p, rec.wrapBackend(p, 0)},
		{"rpc transport", http.RoundTripper(tr), rec.wrapTransport(tr)},
		{"journal filesystem", faults.FS(faults.OS{}), rec.wrapFS()},
	}
	for _, c := range cases {
		plain, tapped := reflect.TypeOf(c.plain), reflect.TypeOf(c.tapped)
		if c.name == "rpc transport" {
			// A RoundTripper is only ever used through RoundTrip plus the
			// interfaces http.Client probes for.
			for name, i := range optional {
				if plain.Implements(i) != tapped.Implements(i) {
					t.Errorf("%s: wrapped %v %s, unwrapped %v", c.name, tapped.Implements(i), name, plain.Implements(i))
				}
			}
			continue
		}
		if !reflect.DeepEqual(methodSet(plain), methodSet(tapped)) {
			t.Errorf("%s: wrapper method set differs:\n  plain   %v\n  wrapped %v", c.name, keys(methodSet(plain)), keys(methodSet(tapped)))
		}
		for name, i := range optional {
			if plain.Implements(i) != tapped.Implements(i) {
				t.Errorf("%s: wrapped %v %s, unwrapped %v", c.name, tapped.Implements(i), name, plain.Implements(i))
			}
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWrappersLeaveResponsesUnchanged drives one fixed request sequence
// against a stack without wrappers and against one with every wrapper
// recording and every request sampled: the answers must be identical. The
// traced stack's attribution must also come out complete.
func TestWrappersLeaveResponsesUnchanged(t *testing.T) {
	s, err := workloads("churn", true)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	answers := func(rec *recorder) []any {
		w, err := setup(s, seed, t.TempDir(), rec)
		if err != nil {
			t.Fatal(err)
		}
		defer w.st.close()
		if rec != nil {
			configureTracing(seed, 1, 1<<14)
			defer configureTracing(seed, traceSample, traceRing)
			rec.on.Store(true)
		}
		d := newLoadgen(w, 1)
		defer d.close()
		gen := s.closedGen(seed, seed, 0)
		var out []any
		edgeRequests := 0 // a churn step is two HTTP requests
		for i := 1; i <= 200; i++ {
			r := gen()
			edgeRequests++
			if r.op == doChurn {
				edgeRequests++
			}
			end := noop
			if rec != nil {
				end = rec.clientCall()
			}
			a, err := d.do(r)
			end()
			if err != nil {
				t.Fatalf("request %d (%s): %v", i, opNames[r.op], err)
			}
			out = append(out, a)
		}
		if rec != nil {
			rec.on.Store(false)
			a := rec.attribute(trace.Default.Snapshot(), true)
			if bad := a.check(); len(bad) > 0 || a.requests != edgeRequests {
				t.Errorf("attribution over %d requests, want %d: %v", a.requests, edgeRequests, bad)
			}
		}
		return out
	}
	plain, tapped := answers(nil), answers(newRecorder())
	for i := range plain {
		if !reflect.DeepEqual(plain[i], tapped[i]) {
			t.Fatalf("answer %d differs:\n  plain   %+v\n  wrapped %+v", i+1, plain[i], tapped[i])
		}
	}
}

// TestAttributionCheck feeds the attribution span sets that disagree with
// the sender's clock and expects each to be reported.
func TestAttributionCheck(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	request := func(rec *recorder, req uint64, start, end int) {
		rec.spans = append(rec.spans,
			span{req: req, layer: layerEdge, shard: -1, start: us(start), end: us(end)},
			span{req: req, layer: layerAPI, shard: -1, start: us(start + 1), end: us(end - 1)})
	}
	cases := []struct {
		name    string
		clients []interval
		want    string // "" for no violation
	}{
		{"agrees", []interval{{us(90), us(210)}, {us(290), us(410)}}, ""},
		{"edge starts before its call", []interval{{us(120), us(210)}, {us(290), us(410)}}, "outside the sender call"},
		{"edge ends after its call", []interval{{us(90), us(190)}, {us(290), us(410)}}, "outside the sender call"},
		{"call reached no edge", []interval{{us(90), us(210)}, {us(290), us(410)}, {us(500), us(600)}}, "reached no traced edge span"},
		{"edge a small share", []interval{{us(0), us(900)}, {us(290), us(410)}}, "under 50%"},
	}
	for _, c := range cases {
		rec := newRecorder()
		request(rec, 1, 100, 200)
		request(rec, 2, 300, 400)
		rec.clients = c.clients
		a := rec.attribute(nil, false)
		bad := a.check()
		switch {
		case c.want == "" && len(bad) > 0:
			t.Errorf("%s: unexpected violations %v", c.name, bad)
		case c.want != "" && !strings.Contains(strings.Join(bad, "\n"), c.want):
			t.Errorf("%s: violations %v, want one containing %q", c.name, bad, c.want)
		}
	}
}

// TestSmokeRuns runs every workload end to end, untraced and traced, on a
// tiny population: every check must pass and the result line must carry
// exactly the metrics BENCHMARK.json declares.
func TestSmokeRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			declared := bench.EndToEnd
			flag := "0"
			if traced {
				declared, flag = bench.PerLayer, "1"
			}
			var out bytes.Buffer
			err := run([]string{"--workload", wl.Name, "--seed", "3", "--seconds", "2", "--trace", flag, "--smoke", "--dir", t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s --trace %s: %v\n%s", wl.Name, flag, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", wl.Name, flag, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", wl.Name, flag, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json declares %d", wl.Name, flag, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, declared unit %s", wl.Name, flag, m.Name, got, m.Unit)
				}
			}
		}
	}
}
