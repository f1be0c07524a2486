package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/poi"
	"repro/internal/vocab"
)

// mapUnseenBound is the map-layout computation the static bound used
// before it moved onto the slab: build the whole SL1 (map accumulation,
// full sort) and take its head. It is the reference for the slab pass.
func mapUnseenBound(ix *Index, q Query) (float64, error) {
	query, err := ix.resolveQuery(q)
	if err != nil {
		return 0, err
	}
	sl1 := ix.buildSL1(query)
	if len(sl1) == 0 {
		return 0, nil
	}
	sl2 := ix.SegmentsByCellCount(q.Epsilon)
	sl3 := ix.segsByLen
	if len(sl2) == 0 || len(sl3) == 0 {
		return 0, nil
	}
	top2 := float64(len(ix.SegmentCells(q.Epsilon)[sl2[0]]))
	top3 := ix.net.Segment(sl3[0]).Length()
	return Interest(sl1[0].Weight*top2, top3, q.Epsilon), nil
}

// boundKeywords is the keyword pool of the bound tests: five tagged
// keywords, "ghost" (in the dictionary, carried by no POI), "late"
// (interned after the index is built, so past the slab's keyword range)
// and "nowhere" (never interned).
var boundKeywords = []string{"shop", "food", "museum", "park", "school", "ghost", "late", "nowhere"}

// boundIndex builds a random world indexed with both layouts. Only a
// keep fraction of the generated POIs is indexed, over fixed world
// bounds, the way a shard indexes the POIs of its halo on the global
// lattice; keep = 0 gives an empty shard. Half the worlds use unit
// weights, so multi-keyword sums often hit the per-cell cap.
func boundIndex(t *testing.T, rng *rand.Rand, keep float64) *Index {
	t.Helper()
	nb := network.NewBuilder()
	for s := rng.Intn(15) + 1; s > 0; s-- {
		x, y := rng.Float64()*10, rng.Float64()*10
		pts := []geo.Point{geo.Pt(x, y)}
		for i := rng.Intn(4) + 1; i > 0; i-- {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			pts = append(pts, geo.Pt(x, y))
		}
		nb.AddStreet("street", pts)
	}
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	dict := vocab.NewDictionary()
	dict.Intern("ghost")
	pb := poi.NewBuilder(dict)
	unit := rng.Intn(2) == 0
	for i := rng.Intn(200) + 20; i > 0; i-- {
		var tags []string
		for _, kw := range boundKeywords[:5] {
			if rng.Float64() < 0.3 {
				tags = append(tags, kw)
			}
		}
		loc := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		w := 0.25 + rng.Float64()*3
		if unit {
			w = 1
		}
		if rng.Float64() < keep {
			pb.AddWeighted(loc, tags, w)
		}
	}
	bounds := net.Bounds().Union(geo.Rect{MaxX: 10, MaxY: 10})
	ix, err := NewIndex(net, pb.Build(), IndexConfig{CellSize: 0.3 + rng.Float64()*0.5, Compact: true, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	dict.Intern("late")
	return ix
}

// TestSlabUnseenBoundMatchesMapReference: the one-pass slab bound must be
// Float64bits-identical to the map layout's sorted-SL1 head on random
// worlds — full, shard-like subsets and empty — for 1–4 keywords
// including unknown ones and ones without postings, at several ε.
func TestSlabUnseenBoundMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	var pairs, nonzero, multi int
	for trial := 0; trial < 60; trial++ {
		keep := []float64{1, 1, 0.5, 0.1, 0}[trial%5]
		ix := boundIndex(t, rng, keep)
		for i := 0; i < 40; i++ {
			kws := make([]string, rng.Intn(4)+1)
			for j := range kws {
				kws[j] = boundKeywords[rng.Intn(len(boundKeywords))]
			}
			q := Query{Keywords: kws, K: 3, Epsilon: []float64{0.1, 0.25, 0.5, 0.9}[rng.Intn(4)]}
			want, err := mapUnseenBound(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.UnseenBound(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %v ε=%v: slab bound %v (%#x), map reference %v (%#x)",
					trial, kws, q.Epsilon, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			pairs++
			if got != 0 {
				nonzero++
				if len(kws) > 1 {
					multi++
				}
			}
		}
	}
	if nonzero < pairs/3 || multi < pairs/10 {
		t.Fatalf("only %d of %d bounds nonzero (%d multi-keyword); the worlds no longer exercise the bound", nonzero, pairs, multi)
	}
}

// TestUnseenBoundErrors: an invalid query fails as it does for SOI, and
// an index without a slab reports ErrNoSlab.
func TestUnseenBoundErrors(t *testing.T) {
	ix := boundIndex(t, rand.New(rand.NewSource(5)), 1)
	if _, err := ix.UnseenBound(Query{K: 3, Epsilon: 0.1}); err == nil {
		t.Error("bound of a keyword-less query accepted")
	}
	mapOnly, err := NewIndex(ix.Network(), ix.POIs(), IndexConfig{CellSize: ix.Grid().CellSize()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapOnly.UnseenBound(Query{Keywords: []string{"shop"}, K: 3, Epsilon: 0.1}); !errors.Is(err, ErrNoSlab) {
		t.Errorf("map-only index: got %v, want ErrNoSlab", err)
	}
}

// TestUnseenBoundZeroAllocs pins the bound of a resolved query on a
// warmed ε at zero allocations, for a single keyword (the head of the
// slab's postings) and for several (the pooled accumulation pass).
func TestUnseenBoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful under -race")
	}
	_, six, q := allocWorld(t)
	six.Warm(q.Epsilon)
	for _, kws := range [][]string{{"shop"}, {"shop", "food"}, {"shop", "food", "museum", "park"}} {
		query, err := six.Resolve(Query{Keywords: kws, K: q.K, Epsilon: q.Epsilon})
		if err != nil {
			t.Fatal(err)
		}
		if six.unseenBound(query, q.Epsilon) == 0 {
			t.Fatalf("%v: zero bound; the world is too sparse for the gate to mean anything", kws)
		}
		allocs := testing.AllocsPerRun(200, func() { six.unseenBound(query, q.Epsilon) })
		if allocs != 0 {
			t.Errorf("%v: bound allocated %.1f objects/op, want 0", kws, allocs)
		}
	}
}

// TestSlabRunEpochWrap forces a run's epoch counter to wrap after it has
// stamped its scratch, then checks that the evaluation and the bound
// pass that follow are unchanged: a stamp left at epoch 1 by an earlier
// query must not read as current once the counter comes round to 1
// again. The run in between uses a smaller ε, so the per-pair stamps
// shrink before the wrap and grow back after it: the wrap must clear
// the whole stamp storage, not just the current length.
func TestSlabRunEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix := boundIndex(t, rng, 1)
	six := ix.SlabIndex()
	ctx := context.Background()
	const bigEps, smallEps = 0.9, 0.1
	resolve := func(kws ...string) vocab.Set {
		query, err := six.Resolve(Query{Keywords: kws, K: 4, Epsilon: bigEps})
		if err != nil {
			t.Fatal(err)
		}
		return query
	}
	first, second := resolve("shop", "food"), resolve("museum", "park")
	boundQuery := Query{Keywords: []string{"school", "shop"}, K: 4, Epsilon: bigEps}
	wantBound, err := mapUnseenBound(ix, boundQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ix.SOIWithStrategy(Query{Keywords: []string{"museum", "park"}, K: 4, Epsilon: bigEps}, CostAware)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query returned nothing; the wrap would go unobserved")
	}
	if len(six.plan(smallEps).segCell) >= len(six.plan(bigEps).segCell) {
		t.Fatal("the small ε does not shrink the per-pair scratch")
	}

	r := &slabRun{six: six}
	for _, eps := range []float64{bigEps, smallEps} {
		if _, _, err := r.evaluate(ctx, first, 4, eps, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.epoch = math.MaxUint32
	got, gotStats, err := r.evaluate(ctx, second, 4, bigEps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", r.epoch)
	}
	requireSameResults(t, "after epoch wrap", got, want)
	sameWork(t, "after epoch wrap", wantStats, gotStats)

	r.epoch = math.MaxUint32
	top, ok := r.maxCappedSum(resolve(boundQuery.Keywords...))
	if !ok {
		t.Fatal("bound query found no cell")
	}
	p := six.plan(bigEps)
	head := p.sl2[0]
	gotBound := Interest(top*float64(p.segCellOff[head+1]-p.segCellOff[head]), six.segLen[six.segsByLen[0]], bigEps)
	if math.Float64bits(gotBound) != math.Float64bits(wantBound) {
		t.Fatalf("bound after epoch wrap = %v, want %v", gotBound, wantBound)
	}
}
