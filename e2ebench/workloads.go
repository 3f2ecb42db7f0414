package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// opCode is one request kind the load generator issues.
type opCode uint8

const (
	doBrowse     opCode = iota // POST /api/v1/users/{id}/browse?slots=5
	doPixel                    // GET /pixel/{px}?uid={id}
	doLike                     // POST /api/v1/users/{id}/likes
	doPrefs                    // GET /api/v1/users/{id}/adpreferences
	doReach                    // POST /api/v1/advertisers/adv/reach
	doReport                   // GET /api/v1/advertisers/adv/campaigns/{id}/report
	doIssuePixel               // POST /api/v1/advertisers/adv/pixels
	doChurn                    // create a campaign, then pause the oldest live one
	numOpCodes
)

var opNames = [numOpCodes]string{"browse", "pixel", "like", "prefs", "reach", "report", "issue_pixel", "churn"}

// class is the gateway's traffic class for an op.
type class uint8

const (
	classUser class = iota
	classReport
	classMutation
	numClasses
)

var classNames = [numClasses]string{"user", "report", "mutation"}

func (o opCode) class() class {
	switch o {
	case doBrowse, doPixel, doLike:
		return classUser
	case doPrefs, doReach, doReport:
		return classReport
	}
	return classMutation
}

// request is one generated input: an op and its seeded arguments.
type request struct {
	op   opCode
	user int // population index
	arg  int // pixel, page, reach spec, report campaign or attribute index
}

// weighted is one entry of an op mix.
type weighted struct {
	op     opCode
	weight int
}

// stream is one Poisson arrival stream of the open-loop phase: keyless
// end users, the API-keyed tenant's reads, or the tenant's mutations.
type stream struct {
	name string
	rate float64 // arrivals per second
	mix  []weighted
}

// spec defines one workload.
type spec struct {
	name       string
	population int
	skew       float64
	journaled  bool
	streams    []stream
	// optIn is the share of users who opt in to the transparency
	// provider by liking its page; 0 deploys no provider.
	optIn float64
	// reportCampaigns and deliveryPass set up the advertiser tenant's
	// reportable campaigns and the browses that give them totals.
	reportCampaigns int
	deliveryPass    int
	// churnLive is how many tenant campaigns churn keeps live.
	churnLive  int
	reachSpecs int
}

const (
	browseSlots  = 5
	tenantName   = "adv"
	tenantKey    = "e2ebench-tenant-adv-key-0001"
	provider     = "tp"
	tenantPixels = 8
)

var likePages = []string{"page-alpha", "page-beta", "page-gamma"}

// userMix is workload.DefaultOpMix: browse 60 / pixel 15 / like 15 /
// ad-preferences 10.
func userMix() []weighted {
	m := workload.DefaultOpMix()
	return []weighted{{doBrowse, m.Browse}, {doPixel, m.Visit}, {doLike, m.Like}, {doPrefs, m.Prefs}}
}

// workloads returns the named workload. Every workload issues all three
// gateway classes, so every end-to-end metric exists on every workload.
// Where a workload's story lacks a class it carries a stream that leaves
// its character intact: pixel issuance (a replicated mutation that changes
// no campaign, so no delivery) and pixel fires (no delivery, no journal)
// on advertiser.
func workloads(name string, smoke bool) (spec, error) {
	var s spec
	switch name {
	case "advertiser":
		s = spec{name: name, population: 100000, skew: 1.1, reportCampaigns: 16, deliveryPass: 2000, reachSpecs: 1024, streams: []stream{
			{"users", 60, []weighted{{doPixel, 1}}},
			{"tenant_reads", 600, []weighted{{doReach, 80}, {doReport, 20}}},
			{"tenant_mutations", 20, []weighted{{doIssuePixel, 1}}},
		}}
	case "churn":
		s = spec{name: name, population: 16000, journaled: true, optIn: 0.2, churnLive: 8, streams: []stream{
			{"users", 90, userMix()},
			{"tenant_mutations", 10, []weighted{{doChurn, 1}}},
		}}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want churn or advertiser)", name)
	}
	if smoke {
		s.population = 400
		s.deliveryPass = min(s.deliveryPass, 100)
		s.reachSpecs = min(s.reachSpecs, 64)
	}
	return s, nil
}

func pick(mix []weighted, rng *stats.RNG) opCode {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range mix {
		if n < w.weight {
			return w.op
		}
		n -= w.weight
	}
	return mix[len(mix)-1].op
}

// draw generates one request of the stream's mix: the op from ops, the
// user and arguments from args.
func (s *spec) draw(st stream, ops, rng *stats.RNG) request {
	r := request{op: pick(st.mix, ops), user: rng.Intn(s.population)}
	switch r.op {
	case doPixel:
		r.arg = rng.Intn(tenantPixels)
	case doLike:
		r.arg = rng.Intn(len(likePages))
	case doReach:
		r.arg = rng.Intn(s.reachSpecs)
	case doReport:
		r.arg = rng.Intn(s.reportCampaigns)
	case doChurn:
		r.arg = rng.Intn(1 << 30)
	}
	return r
}

// arrival is one open-loop request and when it is due, as an offset from
// the phase start.
type arrival struct {
	due time.Duration
	req request
}

// schedule merges the workload's Poisson streams over d.
func (s *spec) schedule(seed uint64, d time.Duration) []arrival {
	var out []arrival
	for i, st := range s.streams {
		rng := stats.NewRNG(stats.SubSeed(seed, uint64(100+i)))
		var t float64
		for {
			t += rng.ExpFloat64() / st.rate
			due := time.Duration(t * float64(time.Second))
			if due >= d {
				break
			}
			out = append(out, arrival{due: due, req: s.draw(st, rng, rng)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// closedGen returns client c's request generator for a closed loop: each
// request comes from a stream chosen in proportion to the streams'
// open-loop rates. The sequence of ops follows opSeed and the users and
// arguments argSeed, so two generators can send the same ops to other
// users.
func (s *spec) closedGen(opSeed, argSeed uint64, c int) func() request {
	ops := stats.NewRNG(stats.SubSeed(opSeed, uint64(200+c)))
	args := stats.NewRNG(stats.SubSeed(argSeed, uint64(400+c)))
	var total float64
	for _, st := range s.streams {
		total += st.rate
	}
	return func() request {
		x := ops.Float64() * total
		for _, st := range s.streams[:len(s.streams)-1] {
			if x < st.rate {
				return s.draw(st, ops, args)
			}
			x -= st.rate
		}
		return s.draw(s.streams[len(s.streams)-1], ops, args)
	}
}

// world is what one setup built: the stack, the population and the state
// the correctness checks compare answers against.
type world struct {
	spec  spec
	st    *stack
	users []*profile.Profile
	ids   []profile.UserID

	tp       *core.Provider
	optedIn  []bool
	pixels   []string
	reports  []string          // the advertiser tenant's reportable campaigns
	owners   map[string]string // campaign ID -> advertiser
	ownersMu sync.Mutex

	churnMu   sync.Mutex
	churnLive []string // tenant campaigns live under churn, oldest first

	reach      []string // reach expressions
	reachWant  []int    // the oracle's answers
	reportWant map[string]httpapi.ReportWire

	// setupAcked counts impressions the advertiser delivery pass
	// acknowledged, per campaign, and its slots and fills.
	setupAcked   map[string]int
	setupBrowsed []int
	setupSlots   int
	setupFilled  int
}

// keyFile grants the tenant and the keyless user surface limits far above
// any rate the benchmark offers, so the gateway refuses nothing at the
// stated rates and every refusal is a defect.
func keyFile() []byte {
	const limits = `"limits":{"user":{"rps":1e6,"burst":1e6},"mutation":{"rps":1e6,"burst":1e6},"report":{"rps":1e6,"burst":1e6}}`
	return []byte(`{"tenants":[` +
		`{"name":"` + tenantName + `","key":"` + tenantKey + `",` + limits + `}],` +
		`"users":{"rps":1e6,"burst":1e6}}`)
}

// population generates the workload's users for seed.
func population(s spec, seed uint64) []*profile.Profile {
	cfg := workload.DefaultConfig()
	cfg.Users = s.population
	cfg.Seed = seed
	cfg.Skew = s.skew
	cfg.Catalog = attr.DefaultCatalog()
	return workload.Generate(cfg)
}

// setup builds one world: the stack over a freshly generated population,
// the provider's deployment and its opt-ins, and the tenant's state. It
// is what setup_s times.
func setup(s spec, seed uint64, dir string, tap *recorder) (*world, error) {
	users := population(s, seed)
	st, err := newStack(stackConfig{journaled: s.journaled, dir: dir, seed: seed, keys: keyFile(), tap: tap}, users)
	if err != nil {
		return nil, err
	}
	w := &world{spec: s, st: st, users: users, owners: make(map[string]string)}
	w.ids = make([]profile.UserID, len(users))
	for i, u := range users {
		w.ids[i] = u.ID
	}
	if err := w.deploy(seed); err != nil {
		st.close()
		return nil, err
	}
	return w, nil
}

func (w *world) deploy(seed uint64) error {
	clu := w.st.clu
	s := w.spec
	if s.optIn > 0 {
		tp, err := core.NewProvider(clu, core.ProviderConfig{Name: provider, Mode: core.RevealObfuscated, CodebookSeed: seed})
		if err != nil {
			return fmt.Errorf("registering provider: %w", err)
		}
		w.tp = tp
		rng := stats.NewRNG(stats.SubSeed(seed, 300))
		w.optedIn = make([]bool, len(w.users))
		var optIns []profile.UserID
		for i := range w.users {
			if rng.Float64() < s.optIn {
				w.optedIn[i] = true
				optIns = append(optIns, w.ids[i])
			}
		}
		if err := parallel(len(optIns), 16, func(i int) error {
			return clu.LikePage(optIns[i], tp.OptInPage())
		}); err != nil {
			return fmt.Errorf("opting in: %w", err)
		}
		var partner []attr.ID
		for _, a := range clu.Catalog().BySource(attr.SourcePartner) {
			partner = append(partner, a.ID)
		}
		dep, err := tp.DeployAttrTreads(partner)
		if err != nil {
			return fmt.Errorf("deploying Treads: %w", err)
		}
		if len(dep.Rejected) > 0 {
			return fmt.Errorf("deploying Treads: %d rejected", len(dep.Rejected))
		}
		for _, id := range tp.Campaigns() {
			w.owners[id] = provider
		}
	}

	if err := clu.RegisterAdvertiser(tenantName); err != nil {
		return err
	}
	for i := 0; i < tenantPixels; i++ {
		px, err := clu.IssuePixel(tenantName)
		if err != nil {
			return err
		}
		w.pixels = append(w.pixels, string(px))
	}
	rng := stats.NewRNG(stats.SubSeed(seed, 301))
	for i := 0; i < s.churnLive; i++ {
		id, err := w.createTenantCampaign(rng.Intn(1 << 30))
		if err != nil {
			return err
		}
		w.churnLive = append(w.churnLive, id)
	}
	for i := 0; i < s.reportCampaigns; i++ {
		id, err := w.createTenantCampaign(rng.Intn(1 << 30))
		if err != nil {
			return err
		}
		w.reports = append(w.reports, id)
	}
	if s.deliveryPass > 0 {
		if err := w.deliveryPass(seed); err != nil {
			return err
		}
	}
	return nil
}

// tenantParams is the campaign the tenant creates for seed n: one common
// platform attribute at the platform's default bid, so tenant campaigns
// compete in the auction without outbidding the provider's Treads.
func tenantParams(n int) (platform.CampaignParams, string) {
	pool := attr.DefaultCatalog().BySource(attr.SourcePlatform)
	a := pool[n%min(len(pool), 32)]
	expr := "attr(" + string(a.ID) + ")"
	e := attr.MustParse(expr)
	return platform.CampaignParams{
		Spec:         audience.Spec{Expr: e},
		BidCapCPM:    money.FromDollars(2),
		FrequencyCap: 2,
	}, expr
}

func (w *world) createTenantCampaign(n int) (string, error) {
	p, _ := tenantParams(n)
	p.Creative.Body = fmt.Sprintf("tenant campaign %d", n)
	id, err := w.st.clu.CreateCampaign(tenantName, p)
	if err != nil {
		return "", fmt.Errorf("creating tenant campaign: %w", err)
	}
	w.noteOwner(id, tenantName)
	return id, nil
}

func (w *world) noteOwner(id, adv string) {
	w.ownersMu.Lock()
	w.owners[id] = adv
	w.ownersMu.Unlock()
}

// deliveryPass browses a seeded sample of users once, so the advertiser
// tenant's campaign reports have non-zero totals to check.
func (w *world) deliveryPass(seed uint64) error {
	rng := stats.NewRNG(stats.SubSeed(seed, 302))
	w.setupBrowsed = make([]int, w.spec.deliveryPass)
	for i := range w.setupBrowsed {
		w.setupBrowsed[i] = rng.Intn(len(w.ids))
	}
	w.setupAcked = make(map[string]int)
	var mu sync.Mutex
	err := parallel(len(w.setupBrowsed), 4, func(i int) error {
		imps, err := w.st.clu.BrowseFeed(w.ids[w.setupBrowsed[i]], browseSlots)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		w.setupSlots += browseSlots
		w.setupFilled += len(imps)
		for _, imp := range imps {
			w.setupAcked[imp.CampaignID]++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("delivery pass: %w", err)
	}
	w.reportWant = make(map[string]httpapi.ReportWire)
	for _, id := range w.reports {
		rep, err := w.st.clu.Report(context.Background(), tenantName, id)
		if err != nil {
			return err
		}
		w.reportWant[id] = httpapi.FromReport(rep)
	}
	return nil
}

// buildReachOracle generates the reach expressions and answers each on a
// single in-process platform holding the whole population, generated
// afresh from the seed (a profile belongs to the store it was added to):
// the answer a correct cluster must reproduce through scatter-gather.
func (w *world) buildReachOracle(seed uint64) error {
	if w.spec.reachSpecs == 0 {
		return nil
	}
	oracle := platform.New(platform.Config{Seed: seed})
	for _, u := range population(w.spec, seed) {
		if err := oracle.AddUser(u); err != nil {
			return err
		}
	}
	if err := oracle.RegisterAdvertiser(tenantName); err != nil {
		return err
	}
	cat := oracle.Catalog()
	plat, part := cat.BySource(attr.SourcePlatform), cat.BySource(attr.SourcePartner)
	rng := stats.NewRNG(stats.SubSeed(seed, 303))
	head := func(pool []*attr.Attribute) string {
		return "attr(" + string(pool[rng.Intn(min(len(pool), 48))].ID) + ")"
	}
	for i := 0; i < w.spec.reachSpecs; i++ {
		a, b, c := head(plat), head(part), head(plat)
		if rng.Intn(2) == 0 {
			c = head(part)
		}
		var expr string
		switch rng.Intn(4) {
		case 0:
			expr = strings.Join([]string{a, b, c}, " AND ")
		case 1:
			expr = "(" + a + " OR " + b + ") AND " + c
		case 2:
			expr = a + " OR (" + b + " AND " + c + ")"
		default:
			expr = strings.Join([]string{a, b, c}, " OR ")
		}
		e, err := attr.Parse(expr)
		if err != nil {
			return err
		}
		n, err := oracle.PotentialReach(context.Background(), tenantName, audience.Spec{Expr: e})
		if err != nil {
			return err
		}
		w.reach = append(w.reach, expr)
		w.reachWant = append(w.reachWant, n)
	}
	return nil
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
