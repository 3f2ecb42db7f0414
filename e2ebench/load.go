package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/httpapi"
)

// loadgen issues generated requests against the stack's public address
// and checks every answer. It holds at most maxConns connections: the
// benchmark's sender goroutines never exceed the box's core count.
type loadgen struct {
	w      *world
	hc     *http.Client
	user   *httpapi.Client // keyless end users
	tenant *httpapi.Client // the API-keyed advertiser tenant

	mu      sync.Mutex
	acked   map[string]int // client-acknowledged impressions per campaign
	browsed map[int]bool   // users sent a browse, answered or not
	slots   int
	filled  int

	refused  atomic.Int64 // 429 and 503 answers
	failures atomic.Int64
	firstErr atomic.Pointer[string]
}

func newLoadgen(w *world, maxConns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, IdleConnTimeout: time.Minute}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	user := httpapi.NewClient(w.st.url)
	user.HTTPClient = hc
	tenant := httpapi.NewClient(w.st.url)
	tenant.HTTPClient = hc
	tenant.APIKey = tenantKey
	return &loadgen{w: w, hc: hc, user: user, tenant: tenant, acked: make(map[string]int), browsed: make(map[int]bool)}
}

func (d *loadgen) close() { d.hc.CloseIdleConnections() }

// fail records a failed request: a transport error, a refusal, or an
// answer that failed its check.
func (d *loadgen) fail(r request, err error) {
	var apiErr *httpapi.APIError
	if errors.As(err, &apiErr) && (apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable) {
		d.refused.Add(1)
	}
	d.failures.Add(1)
	msg := fmt.Sprintf("%s for user %d: %v", opNames[r.op], r.user, err)
	d.firstErr.CompareAndSwap(nil, &msg)
}

// do issues one request, checks its answer and returns it decoded.
func (d *loadgen) do(r request) (any, error) {
	ctx := context.Background()
	w := d.w
	uid := string(w.ids[r.user])
	switch r.op {
	case doBrowse:
		d.mu.Lock()
		d.browsed[r.user] = true
		d.mu.Unlock()
		imps, err := d.user.Browse(ctx, uid, browseSlots)
		if err != nil {
			return nil, err
		}
		if len(imps) > browseSlots {
			return imps, fmt.Errorf("%d impressions for %d slots", len(imps), browseSlots)
		}
		d.mu.Lock()
		d.slots += browseSlots
		d.filled += len(imps)
		for _, imp := range imps {
			d.acked[imp.CampaignID]++
		}
		d.mu.Unlock()
		for _, imp := range imps {
			if imp.CampaignID == "" || imp.Advertiser == "" {
				return imps, fmt.Errorf("impression without campaign or advertiser: %+v", imp)
			}
		}
		return imps, nil
	case doPixel:
		gif, err := d.user.FirePixel(ctx, w.pixels[r.arg], uid)
		if err == nil && !bytes.HasPrefix(gif, []byte("GIF89a")) {
			err = fmt.Errorf("pixel answered %d bytes that are not a GIF", len(gif))
		}
		return gif, err
	case doLike:
		return nil, d.user.Like(ctx, uid, likePages[r.arg])
	case doPrefs:
		got, err := d.user.AdPreferences(ctx, uid)
		if err != nil {
			return nil, err
		}
		return got, checkPrefs(w, r.user, got)
	case doReach:
		n, err := d.tenant.Reach(ctx, tenantName, httpapi.SpecWire{Expr: w.reach[r.arg]})
		if err == nil && n != w.reachWant[r.arg] {
			err = fmt.Errorf("reach of %q = %d, single-platform oracle says %d", w.reach[r.arg], n, w.reachWant[r.arg])
		}
		return n, err
	case doReport:
		id := w.reports[r.arg]
		rep, err := d.tenant.Report(ctx, tenantName, id)
		if err != nil {
			return nil, err
		}
		if want := w.reportWant[id]; rep != want {
			return rep, fmt.Errorf("report for %s = %+v, want %+v", id, rep, want)
		}
		return rep, nil
	case doIssuePixel:
		px, err := d.tenant.IssuePixel(ctx, tenantName)
		if err == nil && px == "" {
			err = fmt.Errorf("issued an empty pixel ID")
		}
		return px, err
	case doChurn:
		return d.churn(ctx, r)
	}
	return nil, fmt.Errorf("unknown op %d", r.op)
}

// churn is one step of the tenant's churn: create a campaign, then pause
// the oldest live one, so the live campaign count holds steady. The step
// is one mutation sample: a create takes about 40% longer than a pause,
// so timing them apart, half and half, would put the class median in the
// gap between the two and make it swing from run to run.
func (d *loadgen) churn(ctx context.Context, r request) (any, error) {
	w := d.w
	p, expr := tenantParams(r.arg)
	id, err := d.tenant.CreateCampaign(ctx, tenantName, httpapi.CreateCampaignRequest{
		Spec:         httpapi.SpecWire{Expr: expr},
		BidCapUSD:    p.BidCapCPM.Dollars(),
		Creative:     httpapi.CreativeWire{Body: fmt.Sprintf("tenant campaign %d", r.arg)},
		FrequencyCap: p.FrequencyCap,
	})
	if err != nil {
		return nil, err
	}
	if id == "" {
		return id, fmt.Errorf("created a campaign with an empty ID")
	}
	w.noteOwner(id, tenantName)
	w.churnMu.Lock()
	w.churnLive = append(w.churnLive, id)
	victim := w.churnLive[0]
	w.churnLive = w.churnLive[1:]
	w.churnMu.Unlock()
	return id, d.tenant.PauseCampaign(ctx, tenantName, victim)
}

// checkPrefs verifies an ad-preferences page lists exactly the user's
// platform-sourced attributes.
func checkPrefs(w *world, user int, got []string) error {
	cat := attr.DefaultCatalog()
	want := make(map[string]bool)
	for _, id := range w.users[user].Attrs() {
		if a := cat.Get(id); a != nil && a.Source == attr.SourcePlatform {
			want[string(id)] = true
		}
	}
	seen := make(map[string]bool, len(got))
	for _, id := range got {
		if !want[id] || seen[id] {
			return fmt.Errorf("ad preferences list %q, which the user does not hold once", id)
		}
		seen[id] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("ad preferences list %d attributes, the user holds %d", len(seen), len(want))
	}
	return nil
}

// phase is what one load phase measured.
type phase struct {
	lat       [numClasses][]time.Duration
	late      []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
}

func (p *phase) merge(o *phase) {
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], o.lat[c]...)
	}
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
}

// openLoop sends the schedule from senders goroutines. Each request is
// timed from when it was due, so a stall that delays later requests
// counts against them; late is how far behind schedule each was sent.
// Requests still unsent 10s after the schedule ends are abandoned and
// count as failed.
func (d *loadgen) openLoop(sched []arrival, senders int) phase {
	var next atomic.Int64
	parts := make([]phase, senders)
	start := time.Now()
	var horizon time.Duration
	if len(sched) > 0 {
		horizon = sched[len(sched)-1].due + 10*time.Second
	}
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				p.attempted++
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				if sent > horizon {
					p.failed++
					continue
				}
				p.late = append(p.late, sent-a.due)
				_, err := d.do(a.req)
				lat := time.Since(start) - a.due
				if err != nil {
					d.fail(a.req, err)
					p.failed++
				}
				p.lat[a.req.op.class()] = append(p.lat[a.req.op.class()], lat)
			}
		}(&parts[g])
	}
	wg.Wait()
	var out phase
	for i := range parts {
		out.merge(&parts[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// closedLoop runs clients that each send their next request when the
// previous one is answered, for dur. before, when set, runs ahead of each
// request and returns what to call once it is answered.
func (d *loadgen) closedLoop(gens []func() request, dur time.Duration, before func() func()) phase {
	parts := make([]phase, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int, p *phase) {
			defer wg.Done()
			for time.Since(start) < dur {
				r := gens[c]()
				after := noop
				if before != nil {
					after = before()
				}
				t0 := time.Now()
				_, err := d.do(r)
				lat := time.Since(t0)
				after()
				p.attempted++
				if err != nil {
					d.fail(r, err)
					p.failed++
				}
				p.lat[r.op.class()] = append(p.lat[r.op.class()], lat)
			}
		}(c, &parts[c])
	}
	wg.Wait()
	var out phase
	for i := range parts {
		out.merge(&parts[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
