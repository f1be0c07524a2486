package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	soi "repro"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// serveConfig is soiserve's default engine configuration (its -workers,
// -cache, -queue-depth, -max-queue-wait and -query-timeout flag
// defaults).
var serveConfig = soi.Config{
	QueueDepth:   256,
	MaxQueueWait: 2 * time.Second,
	QueryTimeout: 30 * time.Second,
}

// shardEngineConfig is soishard's default per-shard executor
// configuration; Recorder is filled per shard.
var shardEngineConfig = engine.Config{
	QueueDepth:   256,
	MaxQueueWait: 2 * time.Second,
	QueryTimeout: 30 * time.Second,
}

// The scatter partition as `soibuild -shards 4` builds it: its default
// halo and the serving cell size, slab-backed.
const (
	scatterShards = 4
	shardHalo     = 0.0012
)

// Stack is one ready-to-serve system under test, listening on loopback.
type Stack struct {
	URL string
	// Engine backs the single-process stacks (nil for scatter).
	Engine *soi.Engine
	// Scatter-only parts: the shard data handed to each shard server,
	// the coordinator, the client's recorder and each shard's recorder.
	Shards    []remote.ShardData
	Coord     *shard.RemoteCoordinator
	Rec       *stats.Recorder
	ShardRecs []*stats.Recorder

	// transport is the scatter client's counting transport in a traced
	// run, nil otherwise.
	transport *countingTransport
	stops     []func()
}

// Close stops every server of the stack and waits for them to exit.
func (s *Stack) Close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// serveLoopback serves h on an ephemeral loopback port with soiserve's
// HTTP server timeouts and returns its base URL and a stop function
// that drains it and waits for Serve to return.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// setupOptions vary a stack for tests and the traced run; the zero
// value is the production wiring.
type setupOptions struct {
	// Config replaces serveConfig when non-nil.
	Config *soi.Config
	// Transport, when non-nil, is the scatter client's transport.
	Transport http.RoundTripper
}

// setup builds the named workload's stack from the generated corpora:
// index or shard builds, ε warm-up and every lazy structure the
// workload's requests touch, then starts serving. warm is one request
// of each lazily served kind, sent straight to the engine.
func setup(c *City, name string, warm warmSet, opt setupOptions) (*Stack, error) {
	cfg := serveConfig
	if opt.Config != nil {
		cfg = *opt.Config
	}
	switch name {
	case "routes":
		eng, err := soi.NewEngineFromCorpora(c.Net, c.POIs, c.Photos, cfg)
		if err != nil {
			return nil, err
		}
		return serveEngine(eng, warm)
	case "live":
		eng, err := soi.NewLiveEngineFromCorpora(c.Net, c.POIs, c.Photos, soi.LiveConfig{Config: cfg})
		if err != nil {
			return nil, err
		}
		return serveEngine(eng, warm)
	case "scatter":
		return setupScatter(c, opt.Transport)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmSet holds one request of each lazily built kind a workload sends.
// The requests are fixed and cheap, the same for every seed, so set-up
// time does not depend on which requests a seed drew.
type warmSet struct {
	describe string
	route    *RouteSpec
	traj     *TrajSpec
	tour     *TourSpec
}

func warmSetOf(c *City, w *Workload) warmSet {
	var ws warmSet
	kws := c.Keywords[len(c.Keywords)-1:]
	if hasOp(w, opDescribe) {
		// The first street, by id, that has photos to describe.
		for _, st := range c.Net.Streets() {
			if rs, _ := c.photoIx.StreetPhotos(c.Net, st.ID, soi.DefaultCellSize); len(rs) > 0 {
				ws.describe = st.Name
				break
			}
		}
	}
	if hasOp(w, opRoute) {
		// From vertex 0 to its nearest reachable vertex.
		dists := c.trajG.Distances(0)
		dst, best := 0, math.Inf(1)
		for v, d := range dists {
			if d > 0 && d < best {
				dst, best = v, d
			}
		}
		ws.route = &RouteSpec{
			Src: c.Net.Vertex(0), Dst: c.Net.Vertex(network.VertexID(dst)),
			Keywords: kws, K: 1, Eps: epsValues[0], Budget: routeBudgetSlack * best,
		}
	}
	if hasOp(w, opTraj) {
		ws.traj = &TrajSpec{Traces: datagen.Traces(c.Net, 0, 1), Keywords: kws, K: 5, Eps: epsValues[0]}
	}
	if hasOp(w, opTour) {
		ws.tour = &TourSpec{Keywords: kws, K: 5, Eps: epsValues[0], Budget: 0.02}
	}
	return ws
}

func serveEngine(eng *soi.Engine, warm warmSet) (*Stack, error) {
	for _, eps := range epsValues {
		eng.Warm(eps)
	}
	if err := warmEngine(eng, warm); err != nil {
		eng.Close()
		return nil, fmt.Errorf("warming lazy structures: %w", err)
	}
	url, stop, err := serveLoopback(server.NewWithConfig(eng, server.Config{MaxBatchBytes: server.DefaultMaxBatchBytes}))
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &Stack{URL: url, Engine: eng, stops: []func(){func() { eng.Close() }, stop}}, nil
}

// warmEngine builds the engine's lazy structures through its public
// methods: the photo index (describe), the trajectory graph (routes),
// the default-radius matcher (trajectories) and the tour graph.
func warmEngine(eng *soi.Engine, w warmSet) error {
	if w.describe != "" {
		if _, err := eng.DescribeStreet(w.describe, soi.SummaryParams{K: describeDefaults.K}); err != nil {
			return err
		}
	}
	if r := w.route; r != nil {
		if _, err := eng.TopRoutes(soi.RouteQuery{
			Src: soi.Point{X: r.Src.X, Y: r.Src.Y}, Dst: soi.Point{X: r.Dst.X, Y: r.Dst.Y},
			Keywords: r.Keywords, K: r.K, Epsilon: r.Eps, Budget: r.Budget, Alpha: r.Alpha,
		}); err != nil {
			return err
		}
	}
	if t := w.traj; t != nil {
		if _, err := eng.TrajectorySOI(soi.TrajectoryQuery{Traces: soiTraces(t), Keywords: t.Keywords, K: t.K, Epsilon: t.Eps}); err != nil {
			return err
		}
	}
	if t := w.tour; t != nil {
		if _, err := eng.RecommendTour(soi.Query{Keywords: t.Keywords, K: t.K, Epsilon: t.Eps}, t.Budget); err != nil {
			return err
		}
	}
	return nil
}

func soiTraces(t *TrajSpec) [][]soi.Point {
	out := make([][]soi.Point, len(t.Traces))
	for i, tr := range t.Traces {
		out[i] = make([]soi.Point, len(tr))
		for j, p := range tr {
			out[i][j] = soi.Point{X: p.X, Y: p.Y}
		}
	}
	return out
}

// setupScatter partitions the city as soibuild does, serves each shard
// with remote.NewServer under soishard's defaults, and fronts them with
// soiserve's -shard-addrs wiring: a remote client, the startup metadata
// cross-check and a RemoteCoordinator behind server.NewRemoteServer.
func setupScatter(c *City, transport http.RoundTripper) (st *Stack, err error) {
	w, err := shard.Partition(c.Net, c.POIs, shard.Config{
		Tiles: scatterShards, Halo: shardHalo, CellSize: soi.DefaultCellSize, Compact: true,
	})
	if err != nil {
		return nil, err
	}
	st = &Stack{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	addrs := make([][]string, len(w.Shards))
	for i, sh := range w.Shards {
		for _, eps := range epsValues {
			sh.Index.Warm(eps)
		}
		d := remote.ShardData{
			ShardID:  sh.ID,
			Shards:   len(w.Shards),
			TileX:    sh.TileX,
			TileY:    sh.TileY,
			Halo:     w.Halo,
			CellSize: w.CellSize,
			Index:    sh.Index,
			Streets:  sh.Streets,
			Segments: sh.Segments,
		}
		rec := stats.NewRecorder()
		ecfg := shardEngineConfig
		ecfg.Recorder = rec
		url, stop, err := serveLoopback(remote.NewServer(d, remote.ServerConfig{Engine: ecfg}))
		if err != nil {
			return nil, err
		}
		st.stops = append(st.stops, stop)
		st.Shards = append(st.Shards, d)
		st.ShardRecs = append(st.ShardRecs, rec)
		addrs[i] = []string{url}
	}
	st.Rec = stats.NewRecorder()
	client, err := remote.NewClient(remote.Config{Addrs: addrs, Transport: transport, Recorder: st.Rec})
	if err != nil {
		return nil, err
	}
	st.stops = append(st.stops, client.Close)
	for i := range addrs {
		m, err := client.Meta(context.Background(), i)
		if err != nil {
			return nil, fmt.Errorf("shard %d meta: %w", i, err)
		}
		if m.Shard != i || m.Shards != len(addrs) {
			return nil, errors.New("shard metadata does not match its address")
		}
	}
	st.Coord = shard.NewRemoteCoordinator(client, w.Halo)
	url, stop, err := serveLoopback(server.NewRemoteServer(server.RemoteConfig{
		Coordinator: st.Coord,
		Recorder:    st.Rec,
		Breakers:    client.BreakerStates,
	}))
	if err != nil {
		return nil, err
	}
	st.stops = append(st.stops, stop)
	st.URL = url
	return st, nil
}
