package traj

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
)

// randomNet builds a small irregular network: street polylines drawn
// from a coarse point pool, so coordinates repeat (shared vertices,
// parallel segments and zero-length self loops), plus a few points
// nudged off the pool to give near-miss vertices a connector can join.
func randomNet(t *testing.T, rng *rand.Rand) *network.Network {
	t.Helper()
	pool := make([]geo.Point, 5+rng.Intn(10))
	for i := range pool {
		p := geo.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		if rng.Intn(5) == 0 {
			p.X += 0.1
		}
		pool[i] = p
	}
	b := network.NewBuilder()
	for s := 0; s < 4+rng.Intn(8); s++ {
		poly := make([]geo.Point, 2+rng.Intn(3))
		for i := range poly {
			poly[i] = pool[rng.Intn(len(pool))]
		}
		b.AddStreet(fmt.Sprintf("s%d", s), poly)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// sameRoutes reports the first difference between two answers, compared
// bit for bit (floats by Float64bits, slices including nil-ness).
func sameRoutes(got, want []Route) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("got %d routes (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Length) != math.Float64bits(w.Length) ||
			math.Float64bits(g.Interest) != math.Float64bits(w.Interest) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			!reflect.DeepEqual(g.Vertices, w.Vertices) || !reflect.DeepEqual(g.Segments, w.Segments) {
			return fmt.Errorf("route %d: got %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// recordingInterest returns a deterministic interest function with
// exact zeros and the log of the segments it was asked for, in order.
func recordingInterest(rng *rand.Rand, m int) (InterestFunc, *[]network.SegmentID) {
	vals := make([]float64, m)
	for i := range vals {
		if rng.Intn(3) > 0 {
			vals[i] = rng.Float64() * 3
		}
	}
	var calls []network.SegmentID
	return func(sid network.SegmentID) float64 {
		calls = append(calls, sid)
		return vals[sid]
	}, &calls
}

// Property: the budget-bounded search gives the full-graph reference's
// answers and SearchStats bit for bit, and asks for the same segment
// interests in the same order — on irregular graphs with connectors,
// zero-length segments and repeated coordinates, at α = 0 and α > 0,
// with budgets from below the shortest path to far beyond it. Pairs
// farther apart than the budget return early with zero work.
func TestTopKRoutesMatchesFullDistanceReference(t *testing.T) {
	ctx := context.Background()
	opt := SearchOptions{MaxExpansions: 400}
	cases, beyond, guarded := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(9100 + int64(trial)))
		net := randomNet(t, rng)
		snap := []float64{0, 0, 0.3, 1.1}[rng.Intn(4)]
		g := NewGraph(net, snap)
		for qi := 0; qi < 6; qi++ {
			src := network.VertexID(rng.Intn(g.NumVertices()))
			dst := network.VertexID(rng.Intn(g.NumVertices()))
			d := g.Distances(dst)[src]
			budgets := []float64{1e-9, 0.5, 3, 40}
			if !math.IsInf(d, 1) {
				budgets = append(budgets, d, d*(1+1e-10), d*(1-1e-12), d*0.7, d*1.3, d*2+1)
			}
			for _, budget := range budgets {
				if !(budget > 0) {
					continue
				}
				q := RouteQuery{
					Src: src, Dst: dst,
					K:      1 + rng.Intn(4),
					Budget: budget,
					Alpha:  []float64{0, 0, 0.3, 2}[rng.Intn(4)],
				}
				seed := rng.Int63()
				refFn, refCalls := recordingInterest(rand.New(rand.NewSource(seed)), net.NumSegments())
				gotFn, gotCalls := recordingInterest(rand.New(rand.NewSource(seed)), net.NumSegments())
				want, wantSt, wantErr := refTopKRoutes(ctx, g, refFn, q, opt)
				got, gotSt, gotErr := TopKRoutes(ctx, g, gotFn, q, opt)
				where := fmt.Sprintf("trial %d query %+v snap %v", trial, q, snap)
				cases++
				if d > q.Budget*(1+boundSlack) {
					beyond++
					if gotErr != nil || got == nil || len(got) != 0 || gotSt != (SearchStats{}) || len(*gotCalls) != 0 {
						t.Fatalf("%s: beyond budget: got %v, %+v, %v, %d interest calls; want empty, zero stats",
							where, got, gotSt, gotErr, len(*gotCalls))
					}
					if wantErr != nil || len(want) != 0 {
						t.Fatalf("%s: reference answered a pair beyond the budget: %v, %v", where, want, wantErr)
					}
					continue
				}
				if errors.Is(wantErr, ErrSearchBudget) {
					guarded++
				}
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s: err %v, reference %v", where, gotErr, wantErr)
				}
				if gotSt != wantSt {
					t.Fatalf("%s: stats %+v, reference %+v", where, gotSt, wantSt)
				}
				if err := sameRoutes(got, want); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !reflect.DeepEqual(*gotCalls, *refCalls) {
					t.Fatalf("%s: interest calls %v, reference %v", where, *gotCalls, *refCalls)
				}
			}
		}
	}
	if beyond == 0 || beyond == cases {
		t.Fatalf("%d of %d cases beyond the budget; the grid must cover both sides", beyond, cases)
	}
	t.Logf("%d cases, %d beyond the budget, %d hit the expansion guard", cases, beyond, guarded)
}

// routeBytes is the mean heap bytes one TopKRoutes call allocates. The
// collector is off and only one P runs, so the graph's pooled scratch
// is neither collected nor left behind on another P between calls.
func routeBytes(t *testing.T, g *Graph, interest InterestFunc, q RouteQuery) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		if _, _, err := TopKRoutes(context.Background(), g, interest, q, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the pool
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// A small-budget query allocates the same bytes on a 16×16 grid as on a
// 64×64 one: its work follows the budget ball, not the city.
func TestTopKRoutesBytesIndependentOfCity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64×64 lattice")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; byte counts are not meaningful")
	}
	bytesOn := func(n int) uint64 {
		net := lattice(t, n)
		g := NewGraph(net, 0)
		// Interest follows the segment's position, not its id, so both
		// grids score the query's neighbourhood alike.
		interest := func(sid network.SegmentID) float64 {
			m := net.Segment(sid).Geom.A
			return float64(int(3*m.X+7*m.Y)%5) / 4
		}
		q := RouteQuery{
			Src: vertexAt(t, net, 1, 1), Dst: vertexAt(t, net, 3, 2),
			K: 3, Budget: 5.5, Alpha: 0.1,
		}
		return routeBytes(t, g, interest, q)
	}
	small, large := bytesOn(16), bytesOn(64)
	if small != large {
		t.Fatalf("bytes per query: %d on 16×16, %d on 64×64; want equal", small, large)
	}
	t.Logf("%d bytes per query", small)
}

// Concurrent searches on one graph share its pooled scratch; each must
// still return exactly its sequential answer.
func TestTopKRoutesConcurrentSharedScratch(t *testing.T) {
	net := lattice(t, 6)
	g := NewGraph(net, 0.8)
	rng := rand.New(rand.NewSource(77))
	type job struct {
		q    RouteQuery
		want []Route
		st   SearchStats
	}
	jobs := make([]job, 24)
	for i := range jobs {
		q := RouteQuery{
			Src: network.VertexID(rng.Intn(g.NumVertices())),
			Dst: network.VertexID(rng.Intn(g.NumVertices())),
			K:   1 + rng.Intn(3), Budget: 1 + rng.Float64()*6, Alpha: []float64{0, 0.4}[i%2],
		}
		want, st, err := TopKRoutes(context.Background(), g, hashInterest, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q, want, st}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(jobs))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range jobs {
					j := jobs[(i+w*7)%len(jobs)]
					got, st, err := TopKRoutes(context.Background(), g, hashInterest, j.q, SearchOptions{})
					if err == nil && st != j.st {
						err = fmt.Errorf("stats %+v, sequential %+v", st, j.st)
					}
					if err == nil {
						err = sameRoutes(got, j.want)
					}
					if err != nil {
						errs <- fmt.Errorf("query %+v: %w", j.q, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
