package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
)

// Daemon defaults the stack reproduces (cmd/adplatformd flag defaults).
const (
	shardCount      = 2
	batchWindow     = 2 * time.Millisecond
	rpcTimeout      = 2 * time.Second
	gatewayInflight = 256
	traceSample     = 0.01
	traceRing       = 4096
	traceSlow       = 500 * time.Millisecond
)

// stackConfig sizes one stack.
type stackConfig struct {
	// journaled gives every shard a write-ahead journal (fsync on, the
	// daemon's 2ms group-commit window) under dir; otherwise shards are
	// in-memory.
	journaled bool
	dir       string
	seed      uint64
	// keys is the gateway's tenant key file.
	keys []byte
	// tap, when non-nil, wraps every public seam with the recorder. The
	// end-to-end runs leave it nil: the stack is then wired exactly as
	// adplatformd wires its router mode.
	tap *recorder
}

// stack is the router-mode deployment in one process: the edge gateway
// wrapping the public HTTP API, served on a loopback listener, in front
// of a cluster coordinator over remote shards, each an RPC server on its
// own loopback listener over one shard platform.
type stack struct {
	reg      *obs.Registry
	backends []rpc.Backend
	closers  []func() error
	servers  []*http.Server
	clients  []*rpc.Client
	clu      *cluster.Cluster
	gw       *gateway.Gateway
	url      string
	serving  sync.WaitGroup // one per server's Serve goroutine
}

// newStack boots the shards over the given population (each user goes to
// the shard the consistent-hash ring assigns it, as the daemon's boot
// loader does) and wires the router, API server and gateway above them.
func newStack(cfg stackConfig, users []*profile.Profile) (st *stack, err error) {
	st = &stack{reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	configureTracing(cfg.seed, traceSample, traceRing)

	ring := cluster.NewRing(shardCount, 0)
	parts := make([][]*profile.Profile, shardCount)
	for _, u := range users {
		i := ring.Owner(string(u.ID))
		parts[i] = append(parts[i], u)
	}
	shards := make([]cluster.Shard, shardCount)
	for i := range shards {
		b, closeFn, err := openShard(cfg, i, parts[i], st.reg)
		if err != nil {
			return st, fmt.Errorf("booting shard %d: %w", i, err)
		}
		st.closers = append(st.closers, closeFn)
		st.backends = append(st.backends, b)
		var served rpc.Backend = b
		if cfg.tap != nil {
			served = cfg.tap.wrapBackend(b, i)
		}
		mux := http.NewServeMux()
		mux.Handle(rpc.PathPrefix, rpc.NewServer(served, "", st.reg))
		addr, err := st.serve(mux)
		if err != nil {
			return st, err
		}
		opts := rpc.Options{CallTimeout: rpcTimeout, Registry: st.reg}
		if cfg.tap != nil {
			opts.Transport = cfg.tap.wrapTransport(defaultRPCTransport())
		}
		c := rpc.NewClient("http://"+addr, opts)
		st.clients = append(st.clients, c)
		var s cluster.Shard = cluster.NewRemoteShard(c)
		if cfg.tap != nil {
			s = cfg.tap.wrapShard(s.(*cluster.RemoteShard), i)
		}
		shards[i] = s
	}
	if err := st.waitHealthy(); err != nil {
		return st, err
	}
	clu, err := cluster.New(shards, cluster.Options{Registry: st.reg})
	if err != nil {
		return st, err
	}
	st.clu = clu
	info := clu.RingInfo()
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	for _, s := range shards {
		// Best effort, as in the daemon: shard nodes without a membership
		// gate accept the push and enforce nothing.
		if p, ok := s.(interface {
			PushRing(context.Context, rpc.RingInfo) error
		}); ok {
			_ = p.PushRing(ctx, info)
		}
	}

	var backend httpapi.Backend = clu
	if cfg.tap != nil {
		backend = cfg.tap.wrapCluster(clu)
	}
	api := httpapi.NewServerWithRegistry(backend, nil, st.reg)
	if tf, ok := backend.(httpapi.TraceFetcher); ok {
		api.SetTraceFetcher(tf)
	}
	var inner http.Handler = api
	if cfg.tap != nil {
		inner = cfg.tap.wrapAPI(api)
	}
	ks, err := gateway.ParseKeyFile(cfg.keys, time.Now())
	if err != nil {
		return st, err
	}
	gw, err := gateway.New(inner, gateway.Config{Keys: ks, Inflight: gatewayInflight, Registry: st.reg})
	if err != nil {
		return st, err
	}
	st.gw = gw
	var edge http.Handler = gw
	if cfg.tap != nil {
		edge = cfg.tap.wrapEdge(gw)
	}
	addr, err := st.serve(edge)
	if err != nil {
		return st, err
	}
	st.url = "http://" + addr
	return st, nil
}

// configureTracing sets the process tracer the way adplatformd's router
// does (its -trace-* flags), at the given sample rate and ring size.
func configureTracing(seed uint64, rate float64, ring int) {
	trace.Default.Configure(trace.Options{
		Service:       "router",
		SampleRate:    rate,
		RingSize:      ring,
		SlowThreshold: traceSlow,
		Seed:          stats.SubSeed(seed, 0x7ace),
	})
}

// defaultRPCTransport mirrors the pooled transport rpc.NewClient builds
// when Options.Transport is nil, so a tapped client differs from an
// untapped one only by the counting wrapper.
func defaultRPCTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

// openShard boots shard i over its slice of the population: in memory, or
// journaled in cfg.dir/shard-i with fsync on and the daemon's batch
// window. The shard's delivery seed is SubSeed(seed, i), as in the daemon.
func openShard(cfg stackConfig, i int, users []*profile.Profile, reg *obs.Registry) (rpc.Backend, func() error, error) {
	boot := func() (*platform.Platform, error) {
		p := platform.New(platform.Config{Seed: stats.SubSeed(cfg.seed, uint64(i))})
		for _, u := range users {
			if err := p.AddUser(u); err != nil {
				return nil, fmt.Errorf("loading population: %w", err)
			}
		}
		return p, nil
	}
	if !cfg.journaled {
		p, err := boot()
		if err != nil {
			return nil, nil, err
		}
		return p, func() error { return nil }, nil
	}
	opts := journal.Options{
		BatchWindow: batchWindow,
		Metrics:     journal.NewMetrics(reg, fmt.Sprint(i)),
	}
	if cfg.tap != nil {
		opts.FS = cfg.tap.wrapFS()
	}
	jp, err := platform.OpenJournaled(filepath.Join(cfg.dir, fmt.Sprintf("shard-%d", i)), opts, boot)
	if err != nil {
		return nil, nil, err
	}
	return jp, jp.Close, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return ln.Addr().String(), nil
}

// waitHealthy polls every shard's health endpoint, as the daemon's router
// does before it serves.
func (st *stack) waitHealthy() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range st.clients {
		for {
			h, err := c.Health(ctx)
			if err == nil && h.OK {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("waiting for shard %s: %v", c.Peer(), err)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

// close stops the listeners (edge first, so no request reaches a closed
// shard), then the clients and the shard journals.
func (st *stack) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		if err := st.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	st.serving.Wait()
	if st.gw != nil {
		if err := st.gw.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, c := range st.clients {
		c.Close()
	}
	for _, fn := range st.closers {
		if err := fn(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
