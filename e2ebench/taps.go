package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/trace"
)

// layer is one module boundary the traced run times. The order is the
// nesting order of a request: each layer's spans sit inside the spans of
// the layers before it.
type layer uint8

const (
	layerEdge     layer = iota // the gateway handler, as served
	layerAPI                   // the httpapi handler given to gateway.New
	layerCluster               // httpapi.Backend calls into the cluster coordinator
	layerRPC                   // cluster.Shard calls into a remote shard
	layerPlatform              // rpc.Backend calls on the shard side
	layerJournal               // the program's own journal.append spans
	layerDelivery              // the program's own delivery.browse spans
	numLayers
)

var layerNames = [numLayers]string{"gateway", "httpapi", "cluster", "rpc", "platform", "journal", "delivery"}

// opKind groups the calls a seam times, for the per-op platform metrics.
type opKind uint8

const (
	opOther     opKind = iota
	opBrowse           // BrowseFeed(Ctx)
	opUserWrite        // VisitPage, LikePage
	opRawReach         // RawReach
	opMutation         // advertiser mutations, replicated to every shard
	numOpKinds
)

// span is one timed call at a seam. Times are offsets from the
// recorder's base, on the monotonic clock.
type span struct {
	req        uint64
	layer      layer
	op         opKind
	shard      int
	start, end time.Duration
}

// recorder keeps the traced run's spans and seam counters in memory. It
// is off except during the traced phase; off, every wrapper is one atomic
// load plus the forwarded call.
//
// The traced phase has a single sender, so the request being served is
// the last one the edge wrapper saw arrive: the edge wrapper numbers each
// request in req, every span a wrapper records carries that number, and
// the API wrapper notes the request's trace ID so the program's own spans
// (which carry trace IDs) join the same request. The sender records each
// of its calls, as it saw them, in clients.
type recorder struct {
	base time.Time
	on   atomic.Bool
	req  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	traces  map[trace.TraceID]uint64
	clients []interval

	rpcAttempts atomic.Int64 // transport round trips
	wireBytes   atomic.Int64 // RPC request plus response body bytes
	walBytes    atomic.Int64 // bytes written to journal segments
	fsyncs      atomic.Int64
	fsyncNanos  atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), traces: make(map[trace.TraceID]uint64)}
}

var noop = func() {}

// timed starts a span and returns the function that ends it.
func (r *recorder) timed(l layer, op opKind, shard int) func() {
	if !r.on.Load() {
		return noop
	}
	req := r.req.Load()
	start := time.Since(r.base)
	return func() {
		end := time.Since(r.base)
		r.mu.Lock()
		r.spans = append(r.spans, span{req: req, layer: l, op: op, shard: shard, start: start, end: end})
		r.mu.Unlock()
	}
}

// interval is a stretch of the recorder's clock.
type interval struct{ start, end time.Duration }

// clientCall marks the start of one call of the traced sender and returns
// the function that marks its end. A call sends one HTTP request, or two
// for a churn step.
func (r *recorder) clientCall() func() {
	if !r.on.Load() {
		return noop
	}
	start := time.Since(r.base)
	return func() {
		end := time.Since(r.base)
		r.mu.Lock()
		r.clients = append(r.clients, interval{start, end})
		r.mu.Unlock()
	}
}

func (r *recorder) noteTrace(tid trace.TraceID) {
	req := r.req.Load()
	r.mu.Lock()
	r.traces[tid] = req
	r.mu.Unlock()
}

// --- http.Handler seams: the served edge and the gateway's inner handler ---

type handlerTap struct {
	h     http.Handler
	rec   *recorder
	layer layer
}

func (r *recorder) wrapEdge(h http.Handler) http.Handler {
	return handlerTap{h: h, rec: r, layer: layerEdge}
}

func (r *recorder) wrapAPI(h http.Handler) http.Handler {
	return handlerTap{h: h, rec: r, layer: layerAPI}
}

func (t handlerTap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if t.layer == layerEdge && t.rec.on.Load() {
		t.rec.req.Add(1)
	}
	done := t.rec.timed(t.layer, opOther, -1)
	if t.layer == layerAPI && t.rec.on.Load() {
		if sp := trace.FromContext(req.Context()); sp != nil {
			tid, _ := sp.IDs()
			t.rec.noteTrace(tid)
		}
	}
	t.h.ServeHTTP(w, req)
	done()
}

// --- httpapi.Backend seam: the cluster coordinator ---

// clusterTap embeds the coordinator, so it has exactly the coordinator's
// method set (every optional interface the API server or daemon probes
// for is still there); the calls the workloads issue are timed.
type clusterTap struct {
	*cluster.Cluster
	rec *recorder
}

func (r *recorder) wrapCluster(c *cluster.Cluster) httpapi.Backend {
	return clusterTap{Cluster: c, rec: r}
}

func (t clusterTap) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer t.rec.timed(layerCluster, opBrowse, -1)()
	return t.Cluster.BrowseFeed(uid, slots)
}

func (t clusterTap) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer t.rec.timed(layerCluster, opBrowse, -1)()
	return t.Cluster.BrowseFeedCtx(ctx, uid, slots)
}

func (t clusterTap) Feed(uid profile.UserID) []ad.Impression {
	defer t.rec.timed(layerCluster, opOther, -1)()
	return t.Cluster.Feed(uid)
}

func (t clusterTap) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer t.rec.timed(layerCluster, opUserWrite, -1)()
	return t.Cluster.VisitPage(uid, px)
}

func (t clusterTap) LikePage(uid profile.UserID, page string) error {
	defer t.rec.timed(layerCluster, opUserWrite, -1)()
	return t.Cluster.LikePage(uid, page)
}

func (t clusterTap) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer t.rec.timed(layerCluster, opOther, -1)()
	return t.Cluster.AdPreferences(uid)
}

func (t clusterTap) PotentialReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	defer t.rec.timed(layerCluster, opRawReach, -1)()
	return t.Cluster.PotentialReach(ctx, adv, spec)
}

func (t clusterTap) Report(ctx context.Context, adv, campaignID string) (billing.Report, error) {
	defer t.rec.timed(layerCluster, opOther, -1)()
	return t.Cluster.Report(ctx, adv, campaignID)
}

func (t clusterTap) RegisterAdvertiser(name string) error {
	defer t.rec.timed(layerCluster, opMutation, -1)()
	return t.Cluster.RegisterAdvertiser(name)
}

func (t clusterTap) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	defer t.rec.timed(layerCluster, opMutation, -1)()
	return t.Cluster.CreateCampaign(adv, p)
}

func (t clusterTap) PauseCampaign(adv, campaignID string) error {
	defer t.rec.timed(layerCluster, opMutation, -1)()
	return t.Cluster.PauseCampaign(adv, campaignID)
}

func (t clusterTap) IssuePixel(adv string) (pixel.PixelID, error) {
	defer t.rec.timed(layerCluster, opMutation, -1)()
	return t.Cluster.IssuePixel(adv)
}

// --- cluster.Shard seam: one remote shard as the coordinator sees it ---

// shardTap embeds the remote shard, keeping its method set: health
// reporting, BrowseFeedCtx, TraceSpans, Close and the membership calls
// all reach the coordinator unchanged.
type shardTap struct {
	*cluster.RemoteShard
	rec   *recorder
	shard int
}

func (r *recorder) wrapShard(s *cluster.RemoteShard, i int) cluster.Shard {
	return shardTap{RemoteShard: s, rec: r, shard: i}
}

func (t shardTap) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer t.rec.timed(layerRPC, opBrowse, t.shard)()
	return t.RemoteShard.BrowseFeed(uid, slots)
}

func (t shardTap) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer t.rec.timed(layerRPC, opBrowse, t.shard)()
	return t.RemoteShard.BrowseFeedCtx(ctx, uid, slots)
}

func (t shardTap) Feed(uid profile.UserID) []ad.Impression {
	defer t.rec.timed(layerRPC, opOther, t.shard)()
	return t.RemoteShard.Feed(uid)
}

func (t shardTap) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer t.rec.timed(layerRPC, opUserWrite, t.shard)()
	return t.RemoteShard.VisitPage(uid, px)
}

func (t shardTap) LikePage(uid profile.UserID, page string) error {
	defer t.rec.timed(layerRPC, opUserWrite, t.shard)()
	return t.RemoteShard.LikePage(uid, page)
}

func (t shardTap) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer t.rec.timed(layerRPC, opOther, t.shard)()
	return t.RemoteShard.AdPreferences(uid)
}

func (t shardTap) RawReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	defer t.rec.timed(layerRPC, opRawReach, t.shard)()
	return t.RemoteShard.RawReach(ctx, adv, spec)
}

func (t shardTap) CampaignTotals(ctx context.Context, adv, campaignID string) (platform.CampaignTotals, error) {
	defer t.rec.timed(layerRPC, opOther, t.shard)()
	return t.RemoteShard.CampaignTotals(ctx, adv, campaignID)
}

func (t shardTap) RegisterAdvertiser(name string) error {
	defer t.rec.timed(layerRPC, opMutation, t.shard)()
	return t.RemoteShard.RegisterAdvertiser(name)
}

func (t shardTap) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	defer t.rec.timed(layerRPC, opMutation, t.shard)()
	return t.RemoteShard.CreateCampaign(adv, p)
}

func (t shardTap) PauseCampaign(adv, campaignID string) error {
	defer t.rec.timed(layerRPC, opMutation, t.shard)()
	return t.RemoteShard.PauseCampaign(adv, campaignID)
}

func (t shardTap) IssuePixel(adv string) (pixel.PixelID, error) {
	defer t.rec.timed(layerRPC, opMutation, t.shard)()
	return t.RemoteShard.IssuePixel(adv)
}

// --- rpc.Backend seam: the shard platform behind an RPC server ---

// shardBackend is what both shard platforms offer the RPC server.
type shardBackend interface {
	rpc.Backend
	BrowseFeedCtx(context.Context, profile.UserID, int) ([]ad.Impression, error)
}

// platformCalls holds the timed overrides shared by both platform taps.
// A tap embeds it beside a struct that embeds the platform, so the
// platform's methods are promoted one level deeper and the overrides win
// without adding any method the platform lacks.
type platformCalls struct {
	b     shardBackend
	rec   *recorder
	shard int
}

type journaledTap struct {
	*platformCalls
	journaledBase
}

type journaledBase struct{ *platform.Journaled }

type memoryTap struct {
	*platformCalls
	memoryBase
}

type memoryBase struct{ *platform.Platform }

func (r *recorder) wrapBackend(b rpc.Backend, i int) rpc.Backend {
	switch p := b.(type) {
	case *platform.Journaled:
		return journaledTap{&platformCalls{b: p, rec: r, shard: i}, journaledBase{p}}
	case *platform.Platform:
		return memoryTap{&platformCalls{b: p, rec: r, shard: i}, memoryBase{p}}
	}
	panic("e2ebench: unexpected shard backend type")
}

func (c *platformCalls) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer c.rec.timed(layerPlatform, opBrowse, c.shard)()
	return c.b.BrowseFeed(uid, slots)
}

func (c *platformCalls) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer c.rec.timed(layerPlatform, opBrowse, c.shard)()
	return c.b.BrowseFeedCtx(ctx, uid, slots)
}

func (c *platformCalls) Feed(uid profile.UserID) []ad.Impression {
	defer c.rec.timed(layerPlatform, opOther, c.shard)()
	return c.b.Feed(uid)
}

func (c *platformCalls) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer c.rec.timed(layerPlatform, opUserWrite, c.shard)()
	return c.b.VisitPage(uid, px)
}

func (c *platformCalls) LikePage(uid profile.UserID, page string) error {
	defer c.rec.timed(layerPlatform, opUserWrite, c.shard)()
	return c.b.LikePage(uid, page)
}

func (c *platformCalls) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer c.rec.timed(layerPlatform, opOther, c.shard)()
	return c.b.AdPreferences(uid)
}

func (c *platformCalls) RawReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	defer c.rec.timed(layerPlatform, opRawReach, c.shard)()
	return c.b.RawReach(ctx, adv, spec)
}

func (c *platformCalls) CampaignTotals(ctx context.Context, adv, campaignID string) (platform.CampaignTotals, error) {
	defer c.rec.timed(layerPlatform, opOther, c.shard)()
	return c.b.CampaignTotals(ctx, adv, campaignID)
}

func (c *platformCalls) RegisterAdvertiser(name string) error {
	defer c.rec.timed(layerPlatform, opMutation, c.shard)()
	return c.b.RegisterAdvertiser(name)
}

func (c *platformCalls) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	defer c.rec.timed(layerPlatform, opMutation, c.shard)()
	return c.b.CreateCampaign(adv, p)
}

func (c *platformCalls) PauseCampaign(adv, campaignID string) error {
	defer c.rec.timed(layerPlatform, opMutation, c.shard)()
	return c.b.PauseCampaign(adv, campaignID)
}

func (c *platformCalls) IssuePixel(adv string) (pixel.PixelID, error) {
	defer c.rec.timed(layerPlatform, opMutation, c.shard)()
	return c.b.IssuePixel(adv)
}

// --- rpc.Options.Transport seam: the router's connection to a shard ---

// transportTap counts round trips and body bytes. It forwards
// CloseIdleConnections, which http.Client probes for, so closing a client
// still releases its pooled connections.
type transportTap struct {
	rt  *http.Transport
	rec *recorder
}

func (r *recorder) wrapTransport(rt *http.Transport) http.RoundTripper {
	return transportTap{rt: rt, rec: r}
}

func (t transportTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if !t.rec.on.Load() {
		return resp, err
	}
	t.rec.rpcAttempts.Add(1)
	if req.ContentLength > 0 {
		t.rec.wireBytes.Add(req.ContentLength)
	}
	if resp != nil {
		resp.Body = countingBody{ReadCloser: resp.Body, n: &t.rec.wireBytes}
	}
	return resp, err
}

func (t transportTap) CloseIdleConnections() { t.rt.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// --- journal.Options.FS seam: the shard journals' disk ---

type fsTap struct {
	faults.FS
	rec *recorder
}

func (r *recorder) wrapFS() faults.FS { return fsTap{FS: faults.OS{}, rec: r} }

func (f fsTap) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return fileTap{File: file, rec: f.rec, segment: strings.HasSuffix(name, ".log")}, nil
}

// fileTap counts bytes written to journal segments and times every fsync.
type fileTap struct {
	faults.File
	rec     *recorder
	segment bool
}

func (f fileTap) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.segment && f.rec.on.Load() {
		f.rec.walBytes.Add(int64(n))
	}
	return n, err
}

func (f fileTap) Sync() error {
	if !f.rec.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.rec.fsyncNanos.Add(int64(time.Since(start)))
	f.rec.fsyncs.Add(1)
	return err
}
