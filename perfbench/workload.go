package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/traj"
)

// Op is one HTTP operation of a traffic mix.
type Op int

const (
	opStreets  Op = iota // GET /api/streets
	opBatch              // POST /api/streets/batch
	opDescribe           // GET /api/describe
	opRoute              // POST /api/routes/topk
	opTraj               // POST /api/trajectories/soi
	opTour               // GET /api/tour
	opWrite              // POST /api/pois without publish
	opPublish            // POST /api/pois with "publish":true
	numOps
)

var opNames = [numOps]string{"ksoi", "batch", "describe", "route", "traj", "tour", "write", "publish"}

func (o Op) String() string { return opNames[o] }

// RouteSpec, TrajSpec and TourSpec are the decoded parameters of the
// requests whose reference answers need more than a core.Query.
type RouteSpec struct {
	Src, Dst geo.Point
	Keywords []string
	K        int
	Eps      float64
	Budget   float64
	Alpha    float64
}

type TrajSpec struct {
	Traces   [][]geo.Point
	Keywords []string
	K        int
	Eps      float64
}

type TourSpec struct {
	Keywords []string
	K        int
	Eps      float64
	Budget   float64
}

// Request is one distinct HTTP request of a workload, with the decoded
// parameters its reference answer is computed from.
type Request struct {
	Op     Op
	Method string
	// Path is the request URI, query string included.
	Path string
	Body []byte

	Query  core.Query   // opStreets
	Batch  []core.Query // opBatch
	Street string       // opDescribe
	Route  *RouteSpec
	Traj   *TrajSpec
	Tour   *TourSpec
	POIs   []soi.POIInput // opWrite, opPublish
}

// Workload is a generated traffic mix: the pool of distinct requests and
// the seeded order in which the load phases send them.
type Workload struct {
	Name string
	Seed int64
	Pool []*Request
	// Closed and Open index Pool: the closed-loop phase walks Closed
	// (wrapping if the run outlasts it), the open-loop phase sends Open
	// in order, one request every 1/Rate seconds.
	Closed []int32
	Open   []int32
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// Sched lays out the run's closed and open windows.
	Sched Schedule
	// Writes is the live writer's request sequence, sent in order,
	// writesPerWindow of them in every closed and open window.
	Writes []*Request
}

// workloadNames lists the traffic mixes in the order BENCHMARK.json
// declares them.
var workloadNames = []string{"routes", "scatter", "live"}

// closedStreamLen bounds the pre-generated closed-loop order; a run that
// sends more requests wraps around it.
const closedStreamLen = 1 << 17

// Live writer shape: every closed and open window carries
// writesPerWindow 25-POI batches spread evenly over it. Only the first
// warm-up cycle publishes inline (the first batch of each of its two
// windows), so the measured windows serve reads from a live engine,
// beside appends, once it has settled after the publishes. A publish
// inside measured windows made live's throughput and p50 swing by a
// third to a half between seeds (IQR/median), past any bound worth
// gating on; the publish cost itself is reported as publish_p50_ms and,
// per layer, ingest.publish_ms.p50.
const (
	writesPerWindow = 4
	writeBatch      = 25
	writerKeyword   = "popup"
)

// kSOIParams are the k values the k-SOI streams draw from.
var kSOIParams = []int{1, 5, 10, 20, 50}

// zipfS is the skew of the k-SOI streams: the hottest query draws about
// 17% of the k-SOI traffic and the 1024 hottest about 97%, while the
// pool is larger than the engine's 1024-entry result cache, so the
// cache mostly hits and still evicts.
const zipfS = 1.1

// maxKeywords bounds the keyword subsets of generated k-SOI queries.
const maxKeywords = 3

// popularitySeed fixes which k-SOI query holds which Zipf rank. The
// popularity ranking is part of the traffic model, the same for every
// seed; the seed draws the request sequence. With a seeded ranking the
// hottest query, about 17% of the traffic, was a heavy one in some seeds
// and a light one in others, and scatter's throughput differed by a
// fifth between two seeds on the same host.
const popularitySeed = 1

// generate builds the named workload for one seed. rate is the
// open-loop arrival rate and seconds the measured length of a run.
func generate(c *City, name string, seed int64, rate, seconds float64) (*Workload, error) {
	w := &Workload{Name: name, Seed: seed, Rate: rate}
	sch := newSchedule(seconds, rate)
	w.Sched = sch
	// runLoad starts with warmupCycles unmeasured cycles.
	nOpen := (sch.Cycles + warmupCycles) * sch.OpenPerCycle
	switch name {
	case "live":
		g := newKSOIGen(c, seed)
		if err := g.buildPool(true); err != nil {
			return nil, err
		}
		w.Pool = g.pool
		w.Closed = g.stream(closedStreamLen, true)
		w.Open = g.stream(nOpen, true)
		// The first write of each window of the first warm-up cycle
		// publishes.
		w.Writes = genWrites(c, seed, 2*(sch.Cycles+warmupCycles)*writesPerWindow, func(i int) bool { return i == 0 || i == writesPerWindow })
	case "scatter":
		g := newKSOIGen(c, seed)
		if err := g.buildPool(false); err != nil {
			return nil, err
		}
		w.Pool = g.pool
		w.Closed = g.stream(closedStreamLen, false)
		w.Open = g.stream(nOpen, false)
	case "routes":
		g, err := newRoutesGen(c, seed)
		if err != nil {
			return nil, err
		}
		w.Pool = g.pool
		w.Closed = g.stream(closedStreamLen)
		w.Open = g.stream(nOpen)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// kSOIGen draws the k-SOI request stream: keyword subsets of the
// dataset keywords × k × warmed ε, ranked by a fixed permutation and
// drawn Zipf-skewed by the seed, plus batches of 8 such queries and describe calls
// on photo-bearing streets taken from earlier answers.
type kSOIGen struct {
	c     *City
	rng   *rand.Rand
	zipf  *rand.Zipf
	ranks []int // Zipf rank → index into pool (streets requests)
	pool  []*Request

	batches   []int // pool indexes of batch requests
	describes []int // pool indexes of describe requests
}

const (
	batchSize     = 8
	batchPoolSize = 128
	describeMax   = 64
)

func newKSOIGen(c *City, seed int64) *kSOIGen {
	return &kSOIGen{c: c, rng: rand.New(rand.NewSource(seed))}
}

func (g *kSOIGen) buildPool(mixed bool) error {
	var subsets [][]string
	kws := g.c.Keywords
	for mask := 1; mask < 1<<len(kws); mask++ {
		var s []string
		for b, kw := range kws {
			if mask&(1<<b) != 0 {
				s = append(s, kw)
			}
		}
		if len(s) <= maxKeywords {
			subsets = append(subsets, s)
		}
	}
	for _, s := range subsets {
		for _, k := range kSOIParams {
			for _, eps := range epsValues {
				g.pool = append(g.pool, streetsRequest(core.Query{Keywords: s, K: k, Epsilon: eps}))
			}
		}
	}
	g.ranks = rand.New(rand.NewSource(popularitySeed)).Perm(len(g.pool))
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.pool)-1))
	if !mixed {
		return nil
	}
	for i := 0; i < batchPoolSize; i++ {
		qs := make([]core.Query, batchSize)
		for j := range qs {
			qs[j] = g.pool[g.ranks[g.zipf.Uint64()]].Query
		}
		g.batches = append(g.batches, len(g.pool))
		g.pool = append(g.pool, batchRequest(qs))
	}
	// Describe targets: photo-bearing streets of the hottest queries'
	// reference answers, in rank order.
	seen := map[string]bool{}
	for r := 0; r < len(g.ranks) && len(g.describes) < describeMax; r++ {
		res, err := g.c.refStreets(g.pool[g.ranks[r]].Query)
		if err != nil {
			return err
		}
		for _, s := range res {
			if seen[s.Name] || len(g.describes) >= describeMax {
				continue
			}
			seen[s.Name] = true
			if rs, _ := g.c.photoIx.StreetPhotos(g.c.Net, s.Street, soi.DefaultCellSize); len(rs) == 0 {
				continue
			}
			g.describes = append(g.describes, len(g.pool))
			g.pool = append(g.pool, describeRequest(s.Name))
		}
	}
	if len(g.describes) == 0 {
		return fmt.Errorf("no photo-bearing street in the k-SOI answers")
	}
	return nil
}

// stream draws n pool indexes: about 80% k-SOI, 10% batches and 10%
// describes when mixed, k-SOI only otherwise.
func (g *kSOIGen) stream(n int, mixed bool) []int32 {
	out := make([]int32, n)
	for i := range out {
		u := 0.0
		if mixed {
			u = g.rng.Float64()
		}
		switch {
		case u < 0.8:
			out[i] = int32(g.ranks[g.zipf.Uint64()])
		case u < 0.9:
			out[i] = int32(g.batches[g.rng.Intn(len(g.batches))])
		default:
			// Describes follow the same skew as the answers they come from.
			d := int(g.zipf.Uint64()) % len(g.describes)
			out[i] = int32(g.describes[d])
		}
	}
	return out
}

func streetsRequest(q core.Query) *Request {
	v := url.Values{}
	v.Set("keywords", strings.Join(q.Keywords, ","))
	v.Set("k", strconv.Itoa(q.K))
	v.Set("eps", strconv.FormatFloat(q.Epsilon, 'g', -1, 64))
	return &Request{Op: opStreets, Method: "GET", Path: "/api/streets?" + v.Encode(), Query: q}
}

func batchRequest(qs []core.Query) *Request {
	type bq struct {
		Keywords []string `json:"keywords"`
		K        int      `json:"k"`
		Eps      float64  `json:"eps"`
	}
	body := struct {
		Queries []bq `json:"queries"`
	}{}
	for _, q := range qs {
		body.Queries = append(body.Queries, bq{q.Keywords, q.K, q.Epsilon})
	}
	return &Request{Op: opBatch, Method: "POST", Path: "/api/streets/batch", Body: mustJSON(body), Batch: qs}
}

func describeRequest(street string) *Request {
	v := url.Values{}
	v.Set("street", street)
	v.Set("k", strconv.Itoa(describeDefaults.K))
	return &Request{Op: opDescribe, Method: "GET", Path: "/api/describe?" + v.Encode(), Street: street}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return b
}

// routesGen draws the routes stream: about 70% routes/topk, 20%
// trajectories/soi and 10% tours. Each kind is dealt from a shuffled
// deck of its pool, so a run sends every pool entry about equally often
// and no seed's run is heavier for having drawn one long search more
// often (none of these requests is cached).
type routesGen struct {
	rng                  *rand.Rand
	pool                 []*Request
	routes, trajs, tours []int
	decks                [3]deck
}

const (
	routePoolSize = 256
	trajPoolSize  = 64
	tourPoolSize  = 64
)

// The route sampler. Every shape parameter is the repo's own route
// benchmark (soibench -routes: k = 3, budget 1.2× the shortest path) or
// a line of the benchmark's specification (src/dst spread over the city
// with long-tail pairs; α ∈ {0, >0}):
//   - src is a uniform vertex and dst a uniform vertex reachable within
//     routeBand mean segment lengths, three times soibench's band of
//     4, so long pairs are part of the mix;
//   - keywords are 1–2 of the dataset keywords, ε one of the warmed
//     values;
//   - every second draw has α > 0, set so the best α = 0 route's length
//     costs half its interest.
const (
	routeBand        = 12.0
	routeK           = 3
	routeBudgetSlack = 1.2
)

// routeGenExpansions caps the reference search of a drawn pair; a pair
// that needs more is dropped. Of the census's 300 draws, 19 exceed the
// engine's 500k-expansion budget (served, they would fail) and 56 more
// are answerable but past the cap; searches past 100k expansions alone
// took 30 times the search time of all the rest. A cap at 100k kept 27
// more pairs per census but made the routes p50 swing 0.19–0.38
// (IQR/median) over five seeds, as the long searches queue the short
// ones behind them, so the cap stays at 30k.
const routeGenExpansions = 30_000

// routeCostEdges buckets a route query by its search work (costBucket);
// the last edge is the cap.
var routeCostEdges = [...]int{100, 300, 1000, 3000, 10_000, routeGenExpansions}

// routeCostCensus is the bucket histogram of routeCensusDraws draws of
// the unstratified sampler at routeCensusSeed (TestRouteCostCensus
// recomputes it); routeCensusDropped of them were dropped (no route, or
// past the cap). A pool fills each bucket in proportion to the census,
// so every seed draws different pairs with the sampler's own cost
// profile, without the between-seed swing of the heavy tail.
const (
	routeCensusSeed    = 0
	routeCensusDraws   = 300
	routeCensusDropped = 87
)

var routeCostCensus = [len(routeCostEdges)]int{46, 34, 43, 37, 38, 15}

// costBucket buckets a reference search by its work: partial routes
// expanded plus partial routes pruned, a deterministic proxy for its
// time. It returns -1 past the cap.
func costBucket(st traj.SearchStats) int {
	n := st.Expansions + st.PrunedBound + st.PrunedBudget
	for i, e := range routeCostEdges {
		if n < e {
			return i
		}
	}
	return -1
}

// routeQuotas splits routePoolSize over the cost buckets in proportion
// to the census, by largest remainder.
func routeQuotas() [len(routeCostEdges)]int {
	var q [len(routeCostEdges)]int
	total := 0
	for _, n := range routeCostCensus {
		total += n
	}
	rem := make([]int, len(q))
	left := routePoolSize
	for i, n := range routeCostCensus {
		q[i] = n * routePoolSize / total
		left -= q[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		ra := routeCostCensus[rem[a]] * routePoolSize % total
		rb := routeCostCensus[rem[b]] * routePoolSize % total
		return ra > rb
	})
	for i := 0; i < left; i++ {
		q[rem[i]]++
	}
	return q
}

// drawRoute draws the seeded part of one route query with the sampler
// above, or nil when the source reaches no vertex within the band.
func drawRoute(c *City, rng *rand.Rand) *RouteSpec {
	st := c.Net.Stats()
	band := routeBand * st.TotalLen / float64(st.NumSegments)
	src := network.VertexID(rng.Intn(c.trajG.NumVertices()))
	dists := c.trajG.Distances(src)
	var cands []network.VertexID
	for v, d := range dists {
		if d > 0 && d <= band {
			cands = append(cands, network.VertexID(v))
		}
	}
	kws := subset(rng, c.Keywords, 2)
	eps := epsValues[rng.Intn(len(epsValues))]
	if len(cands) == 0 {
		return nil
	}
	dst := cands[rng.Intn(len(cands))]
	return &RouteSpec{
		Src: c.Net.Vertex(src), Dst: c.Net.Vertex(dst),
		Keywords: kws, K: routeK, Eps: eps, Budget: routeBudgetSlack * dists[dst],
	}
}

// costRoute runs a drawn query's reference search and returns its cost
// bucket, or -1 when the draw is dropped (no route, or past the cap).
// withAlpha first sets α > 0 from the best α = 0 route.
func costRoute(c *City, spec *RouteSpec, withAlpha bool) int {
	if spec == nil {
		return -1
	}
	ctx := context.Background()
	routes, sst, err := c.refRoutes(ctx, spec, routeGenExpansions)
	if err != nil || len(routes) == 0 {
		return -1
	}
	if withAlpha {
		if !(routes[0].Interest > 0) {
			return -1
		}
		spec.Alpha = 0.5 * routes[0].Interest / routes[0].Length
		if routes, sst, err = c.refRoutes(ctx, spec, routeGenExpansions); err != nil || len(routes) == 0 {
			return -1
		}
	}
	return costBucket(sst)
}

// drawRoutes draws draws [from, from+n) in order and costs them on
// maxConns workers; every second draw has α > 0. Only the drawing uses
// the seed, so the result does not depend on the workers' timing.
func drawRoutes(c *City, rng *rand.Rand, from, n int) ([]*RouteSpec, []int) {
	specs := make([]*RouteSpec, n)
	for i := range specs {
		specs[i] = drawRoute(c, rng)
	}
	buckets := make([]int, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				buckets[i] = costRoute(c, specs[i], (from+i)%2 == 1)
			}
		}()
	}
	wg.Wait()
	return specs, buckets
}

// routeCensus draws n route queries at seed without quotas and returns
// the bucket histogram and the number of dropped draws.
func routeCensus(c *City, seed int64, n int) (hist [len(routeCostEdges)]int, dropped int) {
	_, buckets := drawRoutes(c, rand.New(rand.NewSource(seed)), 0, n)
	for _, b := range buckets {
		if b >= 0 {
			hist[b]++
		} else {
			dropped++
		}
	}
	return hist, dropped
}

func newRoutesGen(c *City, seed int64) (*routesGen, error) {
	g := &routesGen{rng: rand.New(rand.NewSource(seed))}
	quota := routeQuotas()
	const chunk = 64
	for from := 0; len(g.routes) < routePoolSize; from += chunk {
		if from > 20*routePoolSize {
			return nil, fmt.Errorf("found only %d route pairs within the cost census quotas", len(g.routes))
		}
		specs, buckets := drawRoutes(c, g.rng, from, chunk)
		for i, b := range buckets {
			if b < 0 || quota[b] == 0 || len(g.routes) == routePoolSize {
				continue
			}
			quota[b]--
			g.routes = append(g.routes, len(g.pool))
			g.pool = append(g.pool, routeRequest(specs[i]))
		}
	}
	// Trajectory and tour parameters cycle through fixed combinations,
	// so each seed's pools have the same size profile.
	for i := 0; i < trajPoolSize; i++ {
		spec := &TrajSpec{
			Traces:   datagen.Traces(c.Net, g.rng.Int63(), 1+i%4),
			Keywords: subset(g.rng, c.Keywords, 2),
			K:        []int{5, 10}[i/4%2],
			Eps:      epsValues[g.rng.Intn(len(epsValues))],
		}
		g.trajs = append(g.trajs, len(g.pool))
		g.pool = append(g.pool, trajRequest(spec))
	}
	for tries := 0; len(g.tours) < tourPoolSize; tries++ {
		if tries > 50*tourPoolSize {
			return nil, fmt.Errorf("found only %d feasible tours", len(g.tours))
		}
		n := len(g.tours)
		spec := &TourSpec{
			Keywords: subset(g.rng, c.Keywords, 2),
			K:        []int{5, 10}[n%2],
			Eps:      epsValues[g.rng.Intn(len(epsValues))],
			Budget:   []float64{0.02, 0.04}[n/2%2],
		}
		if _, err := c.refTour(spec); err != nil {
			continue
		}
		g.tours = append(g.tours, len(g.pool))
		g.pool = append(g.pool, tourRequest(spec))
	}
	for i, idx := range [][]int{g.routes, g.trajs, g.tours} {
		g.decks[i].idx = append([]int(nil), idx...)
	}
	return g, nil
}

// subset draws 1..max distinct keywords, kept in dataset order.
func subset(rng *rand.Rand, kws []string, max int) []string {
	n := 1 + rng.Intn(max)
	idx := rng.Perm(len(kws))[:n]
	sort.Ints(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = kws[j]
	}
	return out
}

// deck deals pool indexes in shuffled rounds: every index once per
// round.
type deck struct {
	idx  []int
	next int
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.idx), func(i, j int) { d.idx[i], d.idx[j] = d.idx[j], d.idx[i] })
	}
	v := d.idx[d.next]
	d.next = (d.next + 1) % len(d.idx)
	return v
}

func (g *routesGen) stream(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		u := g.rng.Float64()
		switch {
		case u < 0.7:
			out[i] = int32(g.decks[0].deal(g.rng))
		case u < 0.9:
			out[i] = int32(g.decks[1].deal(g.rng))
		default:
			out[i] = int32(g.decks[2].deal(g.rng))
		}
	}
	return out
}

func routeRequest(r *RouteSpec) *Request {
	body := struct {
		Src      [2]float64 `json:"src"`
		Dst      [2]float64 `json:"dst"`
		Keywords []string   `json:"keywords"`
		K        int        `json:"k"`
		Eps      float64    `json:"eps"`
		Budget   float64    `json:"budget"`
		Alpha    float64    `json:"alpha"`
	}{[2]float64{r.Src.X, r.Src.Y}, [2]float64{r.Dst.X, r.Dst.Y}, r.Keywords, r.K, r.Eps, r.Budget, r.Alpha}
	return &Request{Op: opRoute, Method: "POST", Path: "/api/routes/topk", Body: mustJSON(body), Route: r}
}

func trajRequest(t *TrajSpec) *Request {
	traces := make([][][2]float64, len(t.Traces))
	for i, tr := range t.Traces {
		traces[i] = make([][2]float64, len(tr))
		for j, p := range tr {
			traces[i][j] = [2]float64{p.X, p.Y}
		}
	}
	body := struct {
		Traces   [][][2]float64 `json:"traces"`
		Keywords []string       `json:"keywords"`
		K        int            `json:"k"`
		Eps      float64        `json:"eps"`
	}{traces, t.Keywords, t.K, t.Eps}
	return &Request{Op: opTraj, Method: "POST", Path: "/api/trajectories/soi", Body: mustJSON(body), Traj: t}
}

func tourRequest(t *TourSpec) *Request {
	v := url.Values{}
	v.Set("keywords", strings.Join(t.Keywords, ","))
	v.Set("k", strconv.Itoa(t.K))
	v.Set("eps", strconv.FormatFloat(t.Eps, 'g', -1, 64))
	v.Set("budget", strconv.FormatFloat(t.Budget, 'g', -1, 64))
	return &Request{Op: opTour, Method: "GET", Path: "/api/tour?" + v.Encode(), Tour: t}
}

// genWrites draws a live writer's POST /api/pois sequence: batches of
// writeBatch POIs placed on random segments, tagged with a keyword no
// read query uses; write i publishes inline when publish(i). The reads'
// answers therefore stay fixed across epochs while every publish still
// rebuilds the index and invalidates the result cache.
func genWrites(c *City, seed int64, n int, publish func(i int) bool) []*Request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*Request, n)
	for i := range out {
		pois := make([]soi.POIInput, writeBatch)
		for j := range pois {
			seg := c.Net.Segment(network.SegmentID(rng.Intn(c.Net.NumSegments())))
			a, b := c.Net.Vertex(seg.From), c.Net.Vertex(seg.To)
			f := rng.Float64()
			pois[j] = soi.POIInput{X: a.X + (b.X-a.X)*f, Y: a.Y + (b.Y-a.Y)*f, Keywords: []string{writerKeyword}, Weight: 1}
		}
		out[i] = writeRequest(pois, publish(i))
	}
	return out
}

func writeRequest(pois []soi.POIInput, publish bool) *Request {
	type pb struct {
		X        float64  `json:"x"`
		Y        float64  `json:"y"`
		Keywords []string `json:"keywords"`
		Weight   float64  `json:"weight"`
	}
	body := struct {
		POIs    []pb `json:"pois"`
		Publish bool `json:"publish"`
	}{Publish: publish}
	for _, p := range pois {
		body.POIs = append(body.POIs, pb{p.X, p.Y, p.Keywords, p.Weight})
	}
	op := opWrite
	if publish {
		op = opPublish
	}
	return &Request{Op: op, Method: "POST", Path: "/api/pois", Body: mustJSON(body), POIs: pois}
}
