package route

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
)

// randomNet builds a small irregular network whose polylines share a
// coarse point pool (shared vertices, parallel segments, zero-length
// segments), with a second cluster far away so some candidates sit in
// another component.
func randomNet(t *testing.T, rng *rand.Rand) *network.Network {
	t.Helper()
	pool := make([]geo.Point, 6+rng.Intn(12))
	for i := range pool {
		p := geo.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
		if rng.Intn(4) == 0 {
			p.X += 0.2
		}
		if i%5 == 4 {
			p.Y += 100
		}
		pool[i] = p
	}
	b := network.NewBuilder()
	for s := 0; s < 5+rng.Intn(10); s++ {
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

func sameTour(got, want Tour) error {
	if math.Float64bits(got.Length) != math.Float64bits(want.Length) ||
		math.Float64bits(got.Interest) != math.Float64bits(want.Interest) ||
		!reflect.DeepEqual(got, want) {
		return fmt.Errorf("tour\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// Property: the budget-bounded planner returns exactly the tour of the
// full-Dijkstra reference — stops, approach paths, Unreached — for
// budgets from below one street to the whole city, on lattices and
// irregular graphs with and without connectors.
func TestRecommendMatchesFullDijkstraReference(t *testing.T) {
	tours, stops, unreached := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(5300 + int64(trial)))
		var net *network.Network
		if trial%3 == 0 {
			net = gridNetwork(t, 3+rng.Intn(5))
		} else {
			net = randomNet(t, rng)
		}
		g := NewGraph(net)
		if snap := []float64{0, 0.3, 1.5}[rng.Intn(3)]; snap > 0 {
			g = NewGraphConnected(net, snap)
		}
		city := net.Stats().TotalLen
		for qi := 0; qi < 5; qi++ {
			cands := make([]Candidate, 1+rng.Intn(8))
			for i := range cands {
				cands[i] = Candidate{
					Street: network.StreetID(rng.Intn(net.NumStreets())),
					// Few distinct values, so ratios and starts tie.
					Interest: float64(1 + rng.Intn(4)),
				}
			}
			for _, budget := range []float64{1e-6, 0.5, 2, 5, city / 4, city, 3 * city} {
				got, err := Recommend(g, cands, budget)
				want, werr := refRecommend(g, cands, budget)
				if (err == nil) != (werr == nil) {
					t.Fatalf("trial %d budget %v: err %v, reference %v", trial, budget, err, werr)
				}
				if err := sameTour(got, want); err != nil {
					t.Fatalf("trial %d budget %v candidates %v: %v", trial, budget, cands, err)
				}
				tours++
				stops += len(got.Stops)
				unreached += len(got.Unreached)
			}
		}
	}
	if unreached == 0 || stops <= tours {
		t.Fatalf("%d tours, %d stops, %d unreached: the grid must cover multi-stop tours and other components", tours, stops, unreached)
	}
	t.Logf("%d tours, %d stops, %d unreached", tours, stops, unreached)
}

// Concurrent tours on one graph share its pooled searches; each must
// still equal its sequential answer.
func TestRecommendConcurrentSharedSearches(t *testing.T) {
	net := gridNetwork(t, 7)
	g := NewGraphConnected(net, 0.9)
	rng := rand.New(rand.NewSource(91))
	type job struct {
		cands  []Candidate
		budget float64
		want   Tour
	}
	jobs := make([]job, 16)
	for i := range jobs {
		cands := make([]Candidate, 2+rng.Intn(6))
		for j := range cands {
			cands[j] = Candidate{Street: network.StreetID(rng.Intn(net.NumStreets())), Interest: rng.Float64() * 10}
		}
		budget := 2 + rng.Float64()*40
		want, err := Recommend(g, cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{cands, budget, want}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range jobs {
					j := jobs[(i+w*5)%len(jobs)]
					got, err := Recommend(g, j.cands, j.budget)
					if err == nil {
						err = sameTour(got, j.want)
					}
					if err != nil {
						errs <- err
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
