package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/treads-project/treads/internal/trace"
)

// edgeShareMin is the least share of the latency the traced sender
// observed that the edge spans must account for. The per-layer self times
// split each edge span exactly (critical-path self times telescope to the
// root), so the attribution is checked against the sender's own clock
// instead; the rest of what the sender sees is its HTTP client, the
// loopback, net/http's server and decoding and checking the answer: 10%
// of a journaled request and 25% of an advertiser read on a 2-core Xeon.
const edgeShareMin = 0.5

// node is one span in a request's tree.
type node struct {
	span
	children []*node
}

// attribution is the traced phase's split of request time by layer.
type attribution struct {
	requests int
	edge     time.Duration             // summed edge (gateway handler) spans
	self     [numLayers]time.Duration  // summed critical-path self time
	opTime   [numOpKinds]time.Duration // platform spans: summed duration by op
	opCount  [numOpKinds]int
	// leaf spans of the program's own instrumentation, per span
	journalSelf, deliverySelf   time.Duration
	journalSpans, deliverySpans int
	shardCalls                  int
	problems                    []string
	// edges are the traced requests' edge spans; clients the sender's
	// calls, both in start order.
	edges, clients []interval
}

// attribute builds each traced request's span tree from the recorder's
// spans plus the program's own delivery.browse and journal.append spans
// (joined to requests by trace ID), and splits every request's edge time
// across layers along its critical path: a span's self time is its
// duration minus the children that block it, where of overlapping
// children (the scatter-gather fan-out) the one that finished last
// blocks, the rest run hidden beneath it.
func (r *recorder) attribute(program []*trace.SpanData, journaled bool) attribution {
	r.mu.Lock()
	byReq := make(map[uint64][]span)
	for _, s := range r.spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	for _, d := range program {
		var l layer
		switch d.Name {
		case "journal.append":
			l = layerJournal
		case "delivery.browse":
			l = layerDelivery
		default:
			continue
		}
		req, ok := r.traces[d.TraceID]
		if !ok {
			continue
		}
		start := d.Start.Sub(r.base)
		byReq[req] = append(byReq[req], span{req: req, layer: l, shard: -1, start: start, end: start + d.Duration})
	}
	var a attribution
	a.clients = append(a.clients, r.clients...)
	r.mu.Unlock()

	reqs := make([]uint64, 0, len(byReq))
	for req := range byReq {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		a.add(req, byReq[req], journaled)
	}
	return a
}

func (a *attribution) problem(format string, args ...any) {
	if len(a.problems) < 10 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *attribution) add(req uint64, spans []span, journaled bool) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].layer != spans[j].layer {
			return spans[i].layer < spans[j].layer
		}
		return spans[i].start < spans[j].start
	})
	if len(spans) < 2 || spans[0].layer != layerEdge || spans[1].layer != layerAPI ||
		(len(spans) > 2 && spans[2].layer == layerAPI) {
		a.problem("request %d: want one gateway and one httpapi span", req)
		return
	}
	nodes := make([]*node, len(spans))
	for i := range spans {
		nodes[i] = &node{span: spans[i]}
	}
	for _, n := range nodes[1:] {
		p := parentOf(n, nodes)
		if p == nil {
			a.problem("request %d: %s span [%v, %v] lies in no enclosing span", req, layerNames[n.layer], n.start, n.end)
			return
		}
		p.children = append(p.children, n)
	}
	for _, n := range nodes {
		switch n.layer {
		case layerRPC:
			a.shardCalls++
		case layerPlatform:
			a.opTime[n.op] += n.end - n.start
			a.opCount[n.op]++
			if n.op == opBrowse && !hasProgramSpans(n, journaled) {
				a.problem("request %d: shard browse without its delivery.browse (and journal.append) span", req)
			}
		}
	}
	root := nodes[0]
	a.requests++
	a.edge += root.end - root.start
	a.edges = append(a.edges, interval{root.start, root.end})
	a.walk(root)
}

// parentOf returns the innermost span of an outer layer that encloses n;
// shard-side spans only nest under calls to their own shard.
func parentOf(n *node, nodes []*node) *node {
	var best *node
	for _, c := range nodes {
		if c.layer >= n.layer || c.start > n.start || c.end < n.end {
			continue
		}
		if n.shard >= 0 && c.shard >= 0 && n.shard != c.shard {
			continue
		}
		if best == nil || c.layer > best.layer || (c.layer == best.layer && c.start > best.start) {
			best = c
		}
	}
	return best
}

// hasProgramSpans reports whether a shard-side browse holds the program's
// own spans: delivery.browse, inside journal.append on a journaled shard.
func hasProgramSpans(n *node, journaled bool) bool {
	var j, d bool
	for _, c := range n.children {
		switch c.layer {
		case layerJournal:
			j = true
			for _, g := range c.children {
				d = d || g.layer == layerDelivery
			}
		case layerDelivery:
			d = true
		}
	}
	return d && j == journaled
}

// walk charges n's critical-path self time to its layer and recurses
// into the children that block it.
func (a *attribution) walk(n *node) {
	kids := append([]*node(nil), n.children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end > kids[j].end })
	t := n.end
	self := time.Duration(0)
	for _, c := range kids {
		if c.end > t {
			continue // overlaps a later-finishing sibling: hidden beneath it
		}
		self += t - c.end
		a.walk(c)
		t = c.start
	}
	self += t - n.start
	a.self[n.layer] += self
	switch n.layer {
	case layerJournal:
		a.journalSelf += self
		a.journalSpans++
	case layerDelivery:
		a.deliverySelf += self
		a.deliverySpans++
	}
}

// check reports whether the attribution is complete and agrees with the
// sender's clock: every request's tree was built, every edge span lies
// inside the sender call that sent it, every sender call reached the
// edge, and the edge spans account for at least edgeShareMin of the
// latency the sender observed.
func (a *attribution) check() []string {
	bad := append([]string(nil), a.problems...)
	if a.requests == 0 {
		return append(bad, "traced run: no request was traced")
	}
	sort.Slice(a.edges, func(i, j int) bool { return a.edges[i].start < a.edges[j].start })
	sort.Slice(a.clients, func(i, j int) bool { return a.clients[i].start < a.clients[j].start })
	reached := make([]bool, len(a.clients))
	var outside int
	for _, e := range a.edges {
		i := sort.Search(len(a.clients), func(i int) bool { return a.clients[i].start > e.start }) - 1
		if i < 0 || e.end > a.clients[i].end {
			outside++
			continue
		}
		reached[i] = true
	}
	if outside > 0 {
		bad = append(bad, fmt.Sprintf("traced run: %d of %d edge spans lie outside the sender call that sent them", outside, len(a.edges)))
	}
	var missed int
	var client time.Duration
	for i, c := range a.clients {
		client += c.end - c.start
		if !reached[i] {
			missed++
		}
	}
	if missed > 0 {
		bad = append(bad, fmt.Sprintf("traced run: %d of %d sender calls reached no traced edge span", missed, len(a.clients)))
	}
	if float64(a.edge) < edgeShareMin*float64(client) {
		bad = append(bad, fmt.Sprintf("traced run: edge spans sum to %v, under %.0f%% of the %v the sender observed", a.edge, 100*edgeShareMin, client))
	}
	return bad
}

// transportUS is the mean time per traced request the sender observed
// beyond the edge span.
func (a *attribution) transportUS() float64 {
	var client time.Duration
	for _, c := range a.clients {
		client += c.end - c.start
	}
	return meanUS(client-a.edge, a.requests)
}

func (a *attribution) perRequest(d time.Duration) float64 {
	if a.requests == 0 {
		return 0
	}
	return us(d) / float64(a.requests)
}

func meanUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}
