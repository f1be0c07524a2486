package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	soi "repro"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/traj"
)

// perLayer lists every per-layer metric of a traced run with its unit,
// in BENCHMARK.json order. A layer the workload does not reach reports
// 0. Timings marked "replay" come from a sequential replay that times
// each request over HTTP and then each layer's public entry point
// called directly on a twin stack; counts come from the program's own
// recorders over the load phases.
var perLayer = []struct{ name, unit string }{
	{"server.self_us.p50", "us"},
	{"server.resp_bytes.mean", "bytes"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.dedup_ratio", "ratio"},
	{"engine.queue_wait_us.p50", "us"},
	{"engine.queue_wait_us.p99", "us"},
	{"engine.shed", "count"},
	{"core.eval_us.p50", "us"},
	{"core.eval_us.p99", "us"},
	{"core.build_lists_us.p50", "us"},
	{"core.filter_us.p50", "us"},
	{"core.refine_us.p50", "us"},
	{"core.segments_seen_ratio", "ratio"},
	{"core.cells_popped_ratio", "ratio"},
	{"core.mass_cache_hit_ratio", "ratio"},
	{"core.allocs_per_query", "count"},
	{"core.bytes_per_query", "bytes"},
	{"core.index_build_s", "s"},
	{"core.warm_s", "s"},
	{"diversify.eval_us.p50", "us"},
	{"diversify.candidates.mean", "count"},
	{"diversify.cells_pruned_ratio", "ratio"},
	{"diversify.photo_index_build_s", "s"},
	{"traj.route_us.p50", "us"},
	{"traj.route_us.p99", "us"},
	{"traj.dijkstra_us.p50", "us"},
	{"traj.expansions.mean", "count"},
	{"traj.pruned_bound_ratio", "ratio"},
	{"traj.match_us.p50", "us"},
	{"traj.rank_us.p50", "us"},
	{"traj.graph_build_s", "s"},
	{"traj.matcher_build_s", "s"},
	{"route.recommend_us.p50", "us"},
	{"route.graph_build_s", "s"},
	{"shard.gather_us.p50", "us"},
	{"shard.gather_us.p99", "us"},
	{"shard.pruned_ratio", "ratio"},
	{"shard.evaluated.mean", "count"},
	{"remote.hop_us.p50", "us"},
	{"remote.shard_eval_us.p50", "us"},
	{"remote.bytes_per_query", "bytes"},
	{"remote.attempts_per_call", "ratio"},
	{"remote.hedges_per_call", "ratio"},
	{"ingest.publish_ms.p50", "ms"},
	{"ingest.epochs_live.max", "count"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.lag_ms.p99", "ms"},
	{"trace.http_us.p50", "us"},
	{"trace.self_sum_ratio", "ratio"},
}

// countingTransport is the scatter client's transport in a traced run:
// it counts wire bytes and round trips and times every full shard query
// (bound-only calls excluded) from send to the end of its response.
type countingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	wire int64
	hops []time.Duration
}

func newCountingTransport() *countingTransport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16 // the remote client's own default transport setting
	return &countingTransport{base: t}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	full := false
	if req.GetBody != nil {
		if b, err := req.GetBody(); err == nil {
			body, _ := io.ReadAll(b)
			full = req.URL.Path == "/shard/query" && !bytes.Contains(body, []byte(`"bound_only":true`))
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.wire += req.ContentLength
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, start: start, full: full}
	return resp, nil
}

func (t *countingTransport) snapshot() (wire int64, hops []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wire, append([]time.Duration(nil), t.hops...)
}

type countingBody struct {
	io.ReadCloser
	t     *countingTransport
	start time.Time
	full  bool
	n     int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() {
		d := time.Since(b.start)
		b.t.mu.Lock()
		b.t.wire += b.n
		if b.full {
			b.t.hops = append(b.t.hops, d)
		}
		b.t.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// counters is a point-in-time read of the program's recorders, the Go
// runtime and the counting transport.
type counters struct {
	queries, cacheHits, dedup, shed, evals int64
	queueWait                              [stats.NumBuckets]int64
	divSummaries, divCandidates            int64
	divExamined, divPruned                 int64
	calls, attempts, hedges                int64
	totalAlloc                             uint64
	gcCPU, allCPU                          float64
	wire                                   int64
}

// engineRecs returns the recorders of the stack's executors: the
// engine's, or each shard server's.
func engineRecs(st *Stack) []*stats.Recorder {
	if st.Engine != nil {
		return []*stats.Recorder{st.Engine.StatsRecorder()}
	}
	return st.ShardRecs
}

func readCounters(st *Stack) *counters {
	c := &counters{}
	for _, rec := range engineRecs(st) {
		s := rec.Snapshot()
		c.queries += s.Engine.Queries
		c.cacheHits += s.Engine.ResultCacheHits
		c.dedup += s.Engine.DedupJoins
		c.shed += s.Engine.Shed + s.Traj.Shed
		c.evals += s.Engine.Evaluations
		for i, n := range s.Engine.QueueWait.Buckets {
			c.queueWait[i] += n
		}
		c.divSummaries += s.Diversify.Summaries
		c.divCandidates += s.Diversify.CandidatePhotos
		c.divExamined += s.Diversify.CellsExamined
		c.divPruned += s.Diversify.CellsPruned
	}
	if st.Rec != nil {
		r := st.Rec.Snapshot().Remote
		c.calls, c.attempts, c.hedges = r.Calls, r.Attempts, r.HedgesStarted
	}
	if st.transport != nil {
		c.wire, _ = st.transport.snapshot()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// ratio is a/b, 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bucketQuantile is the q-quantile of a histogram delta, as the upper
// bound of its bucket in µs (the recorder's own estimate).
func bucketQuantile(b [stats.NumBuckets]int64, q float64) float64 {
	var total int64
	for _, n := range b {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	bounds := stats.BucketBounds()
	var cum int64
	for i := range bounds {
		cum += b[i]
		if cum >= rank {
			return float64(bounds[i]) / 1e3
		}
	}
	return float64(bounds[len(bounds)-1]) / 1e3
}

// dist collects durations in µs.
type dist []float64

func (d *dist) add(t time.Duration) { *d = append(*d, float64(t)/1e3) }

func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return quantile(sortedCopy(d), q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tracedMetrics fills the per-layer metrics of a traced run from the
// load phases' counter deltas and a sequential replay.
func tracedMetrics(res *Result, c *City, w *Workload, st *Stack, before, after *counters, l Load, epochsMax int64, seconds float64) error {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
	var bytesOK []float64
	reqs := 0
	var lags []float64
	for _, ph := range [][]Sample{l.Closed, l.Open, l.ClosedWrites, l.OpenWrites} {
		for i := range ph {
			if ph[i].Win < 0 {
				continue
			}
			reqs++
			if ph[i].OK {
				bytesOK = append(bytesOK, float64(ph[i].Bytes))
			}
		}
	}
	for _, ph := range [][]Sample{l.Open, l.OpenWrites} {
		for i := range ph {
			if ph[i].Win >= 0 {
				lags = append(lags, float64(ph[i].Lag)/float64(time.Millisecond))
			}
		}
	}
	res.set("server.resp_bytes.mean", mean(bytesOK), "bytes")
	res.set("loadgen.lag_ms.p99", quantile(sortedCopy(lags), 0.99), "ms")

	dq := float64(after.queries - before.queries)
	res.set("engine.cache_hit_ratio", ratio(float64(after.cacheHits-before.cacheHits), dq), "ratio")
	res.set("engine.dedup_ratio", ratio(float64(after.dedup-before.dedup), dq), "ratio")
	var qw [stats.NumBuckets]int64
	for i := range qw {
		qw[i] = after.queueWait[i] - before.queueWait[i]
	}
	res.set("engine.queue_wait_us.p50", bucketQuantile(qw, 0.5), "us")
	res.set("engine.queue_wait_us.p99", bucketQuantile(qw, 0.99), "us")
	res.set("engine.shed", float64(after.shed-before.shed), "count")
	res.set("diversify.candidates.mean", ratio(float64(after.divCandidates-before.divCandidates), float64(after.divSummaries-before.divSummaries)), "count")
	res.set("diversify.cells_pruned_ratio", ratio(float64(after.divPruned-before.divPruned), float64(after.divExamined-before.divExamined)), "ratio")
	dc := float64(after.calls - before.calls)
	res.set("remote.attempts_per_call", ratio(float64(after.attempts-before.attempts), dc), "ratio")
	res.set("remote.hedges_per_call", ratio(float64(after.hedges-before.hedges), dc), "ratio")
	if w.Name == "scatter" {
		res.set("remote.bytes_per_query", ratio(float64(after.wire-before.wire), float64(reqs)), "bytes")
	}
	res.set("runtime.alloc_bytes_per_req", ratio(float64(after.totalAlloc-before.totalAlloc), float64(reqs)), "bytes")
	res.set("runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU), "ratio")
	if st.Engine != nil && st.Engine.Live() {
		res.set("ingest.epochs_live.max", float64(epochsMax), "count")
	}

	// Set-up of each layer, timed on the reference builds.
	res.set("core.index_build_s", c.IndexBuild.Seconds(), "s")
	res.set("core.warm_s", c.Warm.Seconds(), "s")
	if hasOp(w, opDescribe) {
		res.set("diversify.photo_index_build_s", c.PhotoIndexBuild.Seconds(), "s")
	}
	if hasOp(w, opRoute) {
		res.set("traj.graph_build_s", c.TrajGraphBuild.Seconds(), "s")
	}
	if hasOp(w, opTraj) {
		res.set("traj.matcher_build_s", c.MatcherBuild.Seconds(), "s")
	}
	if hasOp(w, opTour) {
		res.set("route.graph_build_s", c.RouteGraphBuild.Seconds(), "s")
	}
	return replay(res, c, w, seconds)
}

func hasOp(w *Workload, op Op) bool {
	for _, r := range w.Pool {
		if r.Op == op {
			return true
		}
	}
	return len(w.Writes) > 0 && (op == opWrite || op == opPublish)
}

// replayWriteEvery is how many replayed reads separate two writes on
// the live workload, and replayPublishEvery how many of those writes
// separate two inline publishes. A publish rebuilds the index on both
// replay stacks, so the replay fits only a few; after it, stack B alone
// appends and publishes until replayMinPublishes publishes are timed.
const (
	replayWriteEvery   = 20
	replayPublishEvery = 2
	replayMinPublishes = 11
)

// replayShare is the share of a run's measured seconds the traced replay
// may take.
const replayShare = 0.3

// replay times a prefix of the open-loop stream request by request on
// two fresh, identically built stacks: A over HTTP, B through each
// layer's public entry point, so both see the same cache history. Inner
// layers (core, diversify, traj, route, per-shard evaluation, ingest)
// are then called directly on the request; each layer's self time is
// its time minus its children's.
//
// The check that the layers add up uses times taken apart from the HTTP
// replay: the same request and response bytes sent through an echo
// server (transport and net/http), the JSON encoding of B's answer, and
// B's call. trace.self_sum_ratio is their sum over the HTTP times; work
// the server does beyond these shows as a ratio below 1.
func replay(res *Result, c *City, w *Workload, seconds float64) error {
	warm := warmSetOf(c, w)
	var tr *countingTransport
	if w.Name == "scatter" {
		tr = newCountingTransport()
	}
	a, err := setup(c, w.Name, warm, setupOptions{Transport: tr})
	if err != nil {
		return err
	}
	defer a.Close()
	a.transport = tr
	b, err := setup(c, w.Name, warm, setupOptions{})
	if err != nil {
		return err
	}
	defer b.Close()
	cl := newClient(a.URL, 1)
	defer cl.Close()
	// echoBody is the response the echo server sends: the body stack A
	// just answered.
	var echoBody atomic.Pointer[[]byte]
	echoURL, stopEcho, err := serveLoopback(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body)
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(*echoBody.Load())
	}))
	if err != nil {
		return err
	}
	defer stopEcho()
	ecl := newClient(echoURL, 1)
	defer ecl.Close()

	ctx := context.Background()
	// Mass caches for the direct core calls, one per index evaluated, as
	// each executor keeps one.
	mc := core.NewMassCache(0)
	shardMass := map[int]*core.MassCache{}
	for _, sd := range b.Shards {
		shardMass[sd.ShardID] = core.NewMassCache(0)
	}
	var (
		httpUs, serverSelf, coreEval, build, filter, refine      dist
		divEval, routeUs, dijkstra, matchUs, rankUs, recommendUs dist
		gather, shardEval, publish                               dist
		seen, popped, massHit, allocs, allocBytes, expansions    []float64
		pruned, prunedShards, evaluated                          []float64
		sumRatios                                                []float64
		sumParts, httpSum                                        float64
		negSelf                                                  int
	)
	// coreCall evaluates q directly on the reference slab index with a
	// mass cache that sees the same evaluations as the engine's.
	coreCall := func(six *core.SlabIndex, mcache *core.MassCache, q core.Query) time.Duration {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		_, s, err := six.SOIContext(ctx, q, mcache)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0
		}
		coreEval.add(d)
		build.add(s.BuildListsTime)
		filter.add(s.FilterTime)
		refine.add(s.RefineTime)
		seen = append(seen, ratio(float64(s.SegmentsSeen), float64(s.TotalSegments)))
		popped = append(popped, ratio(float64(s.CellAccesses), float64(s.TotalCells)))
		massHit = append(massHit, ratio(float64(s.SegmentCacheHits), float64(s.SegmentsFinal)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		return d
	}
	evalsOf := func(st *Stack) int64 {
		var n int64
		for _, rec := range engineRecs(st) {
			n += rec.Engine.Evaluations.Load()
		}
		return n
	}

	budget := time.Duration(math.Max(2, replayShare*seconds) * float64(time.Second))
	start := time.Now()
	// The live replay has a write sequence of its own, with an inline
	// publish every replayPublishEvery writes, so ingest.publish_ms rests
	// on many publishes rather than the load's warm-up pair.
	var writes []*Request
	if len(w.Writes) > 0 {
		writes = genWrites(c, w.Seed, len(w.Open)/replayWriteEvery+replayMinPublishes, func(i int) bool { return i%replayPublishEvery == 0 })
	}
	for i := 0; i < len(w.Open) && time.Since(start) < budget; i++ {
		r := w.Pool[w.Open[i]]
		if len(writes) > 0 && i%replayWriteEvery == replayWriteEvery-1 {
			r = writes[i/replayWriteEvery]
		}
		t := time.Now()
		status, _, _, body, err := cl.Do(r, true)
		tHTTP := time.Since(t)
		if err != nil || status != http.StatusOK {
			continue
		}
		echoBody.Store(&body)
		t = time.Now()
		status, _, _, _, err = ecl.Do(r, false)
		tWire := time.Since(t)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("echo server: status %d, %v", status, err)
		}
		evals0 := evalsOf(b)
		var tApp, inner time.Duration
		var v any
		t = time.Now()
		switch r.Op {
		case opStreets:
			if b.Engine != nil {
				v, err = b.Engine.TopStreetsCtx(ctx, soi.Query{Keywords: r.Query.Keywords, K: r.Query.K, Epsilon: r.Query.Epsilon})
				tApp = time.Since(t)
				if evalsOf(b) > evals0 {
					inner = coreCall(c.six, mc, r.Query)
				}
				break
			}
			sr, g, gerr := b.Coord.TopK(ctx, r.Query, false)
			tApp, v, err = time.Since(t), sr, gerr
			gather.add(tApp)
			prunedShards = append(prunedShards, ratio(float64(g.ShardsPruned), float64(g.ShardsTotal)))
			evaluated = append(evaluated, float64(g.ShardsEvaluated))
			// Per-shard evaluation, called directly; the gather waits for
			// the slowest shard it needs.
			for _, sd := range b.Shards {
				if ub, uerr := sd.Index.UnseenBound(r.Query); uerr != nil || ub == 0 {
					continue
				}
				d := coreCall(sd.Index.SlabIndex(), shardMass[sd.ShardID], r.Query)
				shardEval.add(d)
				if d > inner {
					inner = d
				}
			}
		case opBatch:
			v = b.Engine.TopStreetsBatchCtx(ctx, toSOIQueries(r.Batch))
			tApp = time.Since(t)
		case opDescribe:
			v, err = b.Engine.DescribeStreet(r.Street, soi.SummaryParams{K: describeDefaults.K})
			tApp = time.Since(t)
			t = time.Now()
			c.refDescribe(r.Street)
			inner = time.Since(t)
			divEval.add(inner)
		case opRoute:
			rs := r.Route
			v, err = b.Engine.TopRoutesCtx(ctx, soi.RouteQuery{
				Src: soi.Point{X: rs.Src.X, Y: rs.Src.Y}, Dst: soi.Point{X: rs.Dst.X, Y: rs.Dst.Y},
				Keywords: rs.Keywords, K: rs.K, Epsilon: rs.Eps, Budget: rs.Budget, Alpha: rs.Alpha,
			})
			tApp = time.Since(t)
			t = time.Now()
			_, sst, _ := c.refRoutes(ctx, rs, 0)
			inner = time.Since(t)
			routeUs.add(inner)
			expansions = append(expansions, float64(sst.Expansions))
			pruned = append(pruned, ratio(float64(sst.PrunedBound), float64(sst.Generated)))
			src, _ := traj.NearestVertex(c.Net, rs.Src)
			dst, _ := traj.NearestVertex(c.Net, rs.Dst)
			t = time.Now()
			c.trajG.Distances(dst)
			c.trajG.Distances(src)
			dijkstra.add(time.Since(t))
		case opTraj:
			v, err = b.Engine.TrajectorySOICtx(ctx, soi.TrajectoryQuery{Traces: soiTraces(r.Traj), Keywords: r.Traj.Keywords, K: r.Traj.K, Epsilon: r.Traj.Eps})
			tApp = time.Since(t)
			t = time.Now()
			covered := make([]bool, c.Net.NumSegments())
			for _, tr := range r.Traj.Traces {
				for _, p := range tr {
					if sid, ok := c.matcher.Match(p); ok {
						covered[sid] = true
					}
				}
			}
			dm := time.Since(t)
			matchUs.add(dm)
			interest := c.interestFn(r.Traj.Keywords, r.Traj.Eps)
			t = time.Now()
			traj.CorridorRanking(c.Net, covered, interest, r.Traj.K, nil)
			dr := time.Since(t)
			rankUs.add(dr)
			inner = dm + dr
		case opTour:
			v, err = b.Engine.RecommendTourCtx(ctx, soi.Query{Keywords: r.Tour.Keywords, K: r.Tour.K, Epsilon: r.Tour.Eps}, r.Tour.Budget)
			tApp = time.Since(t)
			q := core.Query{Keywords: r.Tour.Keywords, K: r.Tour.K, Epsilon: r.Tour.Eps}
			if evalsOf(b) > evals0 {
				inner = coreCall(c.six, mc, q)
			}
			res, _ := c.refStreets(q)
			cands := make([]route.Candidate, len(res))
			for i, s := range res {
				cands[i] = route.Candidate{Street: s.Street, Interest: s.Interest}
			}
			t = time.Now()
			route.Recommend(c.routeG, cands, r.Tour.Budget)
			d := time.Since(t)
			recommendUs.add(d)
			inner += d
		case opWrite, opPublish:
			v, err = b.Engine.AddPOIs(r.POIs)
			if r.Op == opPublish && err == nil {
				tp := time.Now()
				v, _, err = b.Engine.Publish()
				inner = time.Since(tp)
				publish = append(publish, float64(inner)/float64(time.Millisecond))
			}
			tApp = time.Since(t)
		}
		if err != nil {
			continue
		}
		t = time.Now()
		_ = json.NewEncoder(io.Discard).Encode(v)
		tEncode := time.Since(t)
		httpUs.add(tHTTP)
		serverSelf.add(tHTTP - tApp)
		if tHTTP < tApp || tApp < inner {
			negSelf++
		}
		parts := tWire + tEncode + tApp
		sumParts += float64(parts)
		httpSum += float64(tHTTP)
		sumRatios = append(sumRatios, float64(parts)/float64(tHTTP))
	}
	for k := len(w.Open) / replayWriteEvery; len(writes) > 0 && len(publish) < replayMinPublishes; k++ {
		if _, err := b.Engine.AddPOIs(writes[k].POIs); err != nil {
			return err
		}
		t := time.Now()
		if _, _, err := b.Engine.Publish(); err != nil {
			return err
		}
		publish = append(publish, float64(time.Since(t))/float64(time.Millisecond))
	}
	_, hops := tr.snapshotOrNil()
	var hop dist
	for _, h := range hops {
		hop.add(h)
	}

	res.set("server.self_us.p50", serverSelf.q(0.5), "us")
	res.set("trace.http_us.p50", httpUs.q(0.5), "us")
	sumRatio := ratio(sumParts, httpSum)
	res.set("trace.self_sum_ratio", sumRatio, "ratio")
	// The per-request spread of the same ratio is the tolerance the sum
	// is held to.
	spread := 0.0
	if len(sumRatios) > 0 {
		sr := sortedCopy(sumRatios)
		spread = (quantile(sr, 0.75) - quantile(sr, 0.25)) / quantile(sr, 0.5)
	}
	res.Meta["self_sum_spread"] = spread
	res.Meta["self_sum_within_spread"] = math.Abs(sumRatio-1) <= spread
	if math.Abs(sumRatio-1) > spread {
		res.Notes = append(res.Notes, fmt.Sprintf("layer times sum to %.3f of the HTTP time, outside the per-request spread %.3f", sumRatio, spread))
	}
	res.Meta["negative_self_share"] = ratio(float64(negSelf), float64(len(httpUs)))
	res.set("core.eval_us.p50", coreEval.q(0.5), "us")
	res.set("core.eval_us.p99", coreEval.q(0.99), "us")
	res.set("core.build_lists_us.p50", build.q(0.5), "us")
	res.set("core.filter_us.p50", filter.q(0.5), "us")
	res.set("core.refine_us.p50", refine.q(0.5), "us")
	res.set("core.segments_seen_ratio", mean(seen), "ratio")
	res.set("core.cells_popped_ratio", mean(popped), "ratio")
	res.set("core.mass_cache_hit_ratio", mean(massHit), "ratio")
	res.set("core.allocs_per_query", mean(allocs), "count")
	res.set("core.bytes_per_query", mean(allocBytes), "bytes")
	res.set("diversify.eval_us.p50", divEval.q(0.5), "us")
	res.set("traj.route_us.p50", routeUs.q(0.5), "us")
	res.set("traj.route_us.p99", routeUs.q(0.99), "us")
	res.set("traj.dijkstra_us.p50", dijkstra.q(0.5), "us")
	res.set("traj.expansions.mean", mean(expansions), "count")
	res.set("traj.pruned_bound_ratio", mean(pruned), "ratio")
	res.set("traj.match_us.p50", matchUs.q(0.5), "us")
	res.set("traj.rank_us.p50", rankUs.q(0.5), "us")
	res.set("route.recommend_us.p50", recommendUs.q(0.5), "us")
	res.set("shard.gather_us.p50", gather.q(0.5), "us")
	res.set("shard.gather_us.p99", gather.q(0.99), "us")
	res.set("shard.pruned_ratio", mean(prunedShards), "ratio")
	res.set("shard.evaluated.mean", mean(evaluated), "count")
	res.set("remote.hop_us.p50", hop.q(0.5), "us")
	res.set("remote.shard_eval_us.p50", shardEval.q(0.5), "us")
	if len(publish) > 0 {
		res.set("ingest.publish_ms.p50", quantile(sortedCopy(publish), 0.5), "ms")
	}
	res.Meta["replay_requests"] = len(httpUs)
	return nil
}

func (t *countingTransport) snapshotOrNil() (int64, []time.Duration) {
	if t == nil {
		return 0, nil
	}
	return t.snapshot()
}

func toSOIQueries(qs []core.Query) []soi.Query {
	out := make([]soi.Query, len(qs))
	for i, q := range qs {
		out[i] = soi.Query{Keywords: q.Keywords, K: q.K, Epsilon: q.Epsilon}
	}
	return out
}
