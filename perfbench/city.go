package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	soi "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/diversify"
	"repro/internal/network"
	"repro/internal/photo"
	"repro/internal/poi"
	"repro/internal/route"
	"repro/internal/traj"
)

// The benchmark city: the Berlin profile (the paper's Table 2 city) at
// 5% volume. At this scale a k-SOI evaluation takes 0.3–4 ms and a
// route search up to tens of ms on one core, so the runs measure query
// work rather than only HTTP overhead, while set-up stays under a
// second and a run fits in memory beside other processes.
const (
	cityName  = "berlin"
	cityScale = 0.05
)

// epsValues are the three warmed ε values every query draws from. All
// stay below shardHalo, so the scatter workload answers every query
// exactly.
var epsValues = []float64{0.0003, 0.0005, 0.0008}

// City is the generated dataset plus the reference structures the
// answer gate compares the serving stack against: direct calls into
// core, traj, route and diversify, with no engine, cache, shard or HTTP
// layer in between.
type City struct {
	Net    *network.Network
	POIs   *poi.Corpus
	Photos *photo.Corpus
	// Keywords are the dataset's POI keywords, in profile order.
	Keywords []string

	ref     *core.Index
	six     *core.SlabIndex
	trajG   *traj.Graph
	matcher *traj.Matcher
	routeG  *route.Graph
	photoIx *diversify.PhotoIndex

	// memo caches reference k-SOI answers: batches and describes repeat
	// the pool's queries, and the gate needs each answer once.
	memoMu sync.Mutex
	memo   map[string][]core.StreetResult

	// CorpusHeap is the live heap right after generation: the corpora
	// every serving stack shares.
	CorpusHeap uint64

	// Build times of the reference structures: the same constructors the
	// engine runs lazily, timed directly (per-layer set-up metrics).
	IndexBuild, Warm, TrajGraphBuild, MatcherBuild, RouteGraphBuild, PhotoIndexBuild time.Duration
}

// loadCity generates the benchmark city and builds its references.
func loadCity() (*City, error) {
	p := datagen.Berlin()
	ds, err := datagen.Generate(datagen.Scale(p, cityScale))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", cityName, err)
	}
	c := &City{Net: ds.Network, POIs: ds.POIs, Photos: ds.Photos, CorpusHeap: heapLive()}
	for _, cat := range p.Categories {
		c.Keywords = append(c.Keywords, cat.Name)
	}
	c.Keywords = append(c.Keywords, "shop")

	t := time.Now()
	c.ref, err = core.NewIndex(c.Net, c.POIs, core.IndexConfig{CellSize: soi.DefaultCellSize, Compact: true})
	if err != nil {
		return nil, fmt.Errorf("building reference index: %w", err)
	}
	c.IndexBuild = time.Since(t)
	c.six = c.ref.SlabIndex()
	if c.six == nil {
		return nil, errors.New("reference index has no slab")
	}
	t = time.Now()
	for _, eps := range epsValues {
		c.ref.Warm(eps)
	}
	c.Warm = time.Since(t)

	t = time.Now()
	c.trajG = traj.NewGraph(c.Net, traj.DefaultSnap(c.Net))
	c.TrajGraphBuild = time.Since(t)
	t = time.Now()
	c.matcher = traj.NewMatcher(c.Net, traj.DefaultSnap(c.Net))
	c.MatcherBuild = time.Since(t)
	t = time.Now()
	// The same connector snap the engine's tour planner derives.
	st := c.Net.Stats()
	c.routeG = route.NewGraphConnected(c.Net, 1.5*st.TotalLen/float64(st.NumSegments))
	c.RouteGraphBuild = time.Since(t)
	t = time.Now()
	c.photoIx, err = diversify.NewPhotoIndex(c.Photos, soi.DefaultCellSize)
	if err != nil {
		return nil, fmt.Errorf("building reference photo index: %w", err)
	}
	c.PhotoIndexBuild = time.Since(t)
	return c, nil
}

// heapLive returns the bytes of live heap objects after forced
// collections (the second frees what finalizers released in the
// first). Live bytes, unlike HeapInuse, do not move with how earlier
// garbage fragmented the heap's spans.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// refStreets is the reference k-SOI answer: the slab evaluator called
// directly, memoized per query.
func (c *City) refStreets(q core.Query) ([]core.StreetResult, error) {
	key := fmt.Sprintf("%q/%d/%v", q.Keywords, q.K, q.Epsilon)
	c.memoMu.Lock()
	res, ok := c.memo[key]
	c.memoMu.Unlock()
	if ok {
		return res, nil
	}
	res, _, err := c.six.SOI(q)
	if err != nil {
		return nil, err
	}
	c.memoMu.Lock()
	if c.memo == nil {
		c.memo = map[string][]core.StreetResult{}
	}
	c.memo[key] = res
	c.memoMu.Unlock()
	return res, nil
}

// interestFn is the segment interest the engine's route and trajectory
// queries use, evaluated on the reference index.
func (c *City) interestFn(keywords []string, eps float64) traj.InterestFunc {
	set, _ := c.ref.POIs().Dict().LookupAll(keywords)
	return func(sid network.SegmentID) float64 {
		return c.ref.SegmentInterest(sid, set, eps)
	}
}

// refRoutes is the reference answer of a routes/topk request.
func (c *City) refRoutes(ctx context.Context, r *RouteSpec, maxExpansions int) ([]traj.Route, traj.SearchStats, error) {
	src, ok := traj.NearestVertex(c.Net, r.Src)
	if !ok {
		return nil, traj.SearchStats{}, errors.New("empty network")
	}
	dst, _ := traj.NearestVertex(c.Net, r.Dst)
	q := traj.RouteQuery{Src: src, Dst: dst, K: r.K, Budget: r.Budget, Alpha: r.Alpha}
	return traj.TopKRoutes(ctx, c.trajG, c.interestFn(r.Keywords, r.Eps), q, traj.SearchOptions{MaxExpansions: maxExpansions})
}

// refTraj is the reference answer of a trajectories/soi request (the
// default match radius).
func (c *City) refTraj(ctx context.Context, t *TrajSpec) ([]traj.CorridorResult, error) {
	res, _, err := traj.TrajectorySOI(ctx, c.matcher, c.interestFn(t.Keywords, t.Eps),
		traj.TrajQuery{Traces: t.Traces, K: t.K, Radius: c.matcher.Radius()})
	return res, err
}

// refTour is the reference answer of a tour request.
func (c *City) refTour(t *TourSpec) (route.Tour, error) {
	res, err := c.refStreets(core.Query{Keywords: t.Keywords, K: t.K, Epsilon: t.Eps})
	if err != nil {
		return route.Tour{}, err
	}
	if len(res) == 0 {
		return route.Tour{}, errors.New("no street matches the query")
	}
	cands := make([]route.Candidate, len(res))
	for i, r := range res {
		cands[i] = route.Candidate{Street: r.Street, Interest: r.Interest}
	}
	return route.Recommend(c.routeG, cands, t.Budget)
}

// describeDefaults are the /api/describe parameters the benchmark
// sends: the server's defaults for k, λ, w, ρ and ε.
var describeDefaults = diversify.Params{K: 4, Lambda: 0.5, W: 0.5, Rho: 0.0001}

// refDescribe is the reference ST_Rel+Div summary of a street: photo
// extraction, context and Algorithm 2 called directly.
func (c *City) refDescribe(name string) ([]photo.Photo, diversify.Result, error) {
	st := c.Net.StreetByName(name)
	if st == nil {
		return nil, diversify.Result{}, fmt.Errorf("unknown street %q", name)
	}
	rs, maxD := c.photoIx.StreetPhotos(c.Net, st.ID, soi.DefaultCellSize)
	if len(rs) == 0 {
		return nil, diversify.Result{}, fmt.Errorf("street %q has no photos", name)
	}
	ctx, err := diversify.NewContext(rs, diversify.FreqFromPhotos(c.Photos.Dict(), rs), maxD, describeDefaults.Rho)
	if err != nil {
		return nil, diversify.Result{}, err
	}
	res, err := ctx.STRelDiv(describeDefaults)
	return rs, res, err
}
