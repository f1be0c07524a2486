package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
)

var (
	cityOnce sync.Once
	city     *City
	cityErr  error
)

func testCity(t *testing.T) *City {
	t.Helper()
	cityOnce.Do(func() { city, cityErr = loadCity() })
	if cityErr != nil {
		t.Fatal(cityErr)
	}
	return city
}

// sequenceBytes serializes everything a workload will send, in order.
func sequenceBytes(w *Workload) []byte {
	var b bytes.Buffer
	emit := func(r *Request) {
		b.WriteString(r.Method)
		b.WriteByte(' ')
		b.WriteString(r.Path)
		b.WriteByte('\n')
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	for _, i := range w.Closed {
		emit(w.Pool[i])
	}
	for _, i := range w.Open {
		emit(w.Pool[i])
	}
	for _, r := range w.Writes {
		emit(r)
	}
	return b.Bytes()
}

func TestRequestSequenceDeterministic(t *testing.T) {
	c := testCity(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gen := func(seed int64) []byte {
				w, err := generate(c, name, seed, 200, 4)
				if err != nil {
					t.Fatal(err)
				}
				return sequenceBytes(w)
			}
			a, b, other := gen(7), gen(7), gen(8)
			if !bytes.Equal(a, b) {
				t.Fatal("one seed gave two different request sequences")
			}
			if bytes.Equal(a, other) {
				t.Fatal("seeds 7 and 8 gave the same request sequence")
			}
		})
	}
}

// TestScatterShardsAreSlabBacked guards the scatter wiring: every shard
// served is a slab-backed partition (as soibuild builds it, not the map
// path), and coordinator answers over HTTP are bit-identical to the
// single slab index.
func TestScatterShardsAreSlabBacked(t *testing.T) {
	c := testCity(t)
	st, err := setupScatter(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Shards) != scatterShards {
		t.Fatalf("served %d shards, want %d", len(st.Shards), scatterShards)
	}
	for _, d := range st.Shards {
		if d.Index.SlabIndex() == nil {
			t.Fatalf("shard %d serves an index without a slab", d.ShardID)
		}
	}
	w, err := generate(c, "scatter", 3, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(st.URL, maxConns)
	defer cl.Close()
	if _, err := gate(c, cl, w.Pool[:60]); err != nil {
		t.Fatal(err)
	}
}

// TestFailureAccounting arms a timeout and a shed on the real live stack
// and checks both count as failed and sit in the latency percentiles as
// misses, never as fast successes.
func TestFailureAccounting(t *testing.T) {
	c := testCity(t)
	cfg := serveConfig
	cfg.Workers, cfg.QueueDepth = 1, 1
	w, err := generate(c, "live", 1, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := setup(c, "live", warmSetOf(c, w), setupOptions{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cl := newClient(st.URL, 3)
	defer cl.Close()
	cl.hc.Timeout = 300 * time.Millisecond

	// Distinct uncached queries, so none joins another's evaluation.
	var reqs []*Request
	for k := 41; k <= 44; k++ {
		reqs = append(reqs, streetsRequest(core.Query{Keywords: []string{"food"}, K: k, Epsilon: epsValues[1]}))
	}

	release := make(chan struct{})
	faults.Activate(engine.SiteEvaluate, faults.Fault{Block: release})
	defer faults.Deactivate(engine.SiteEvaluate)
	samples := make([]Sample, 4)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		t0 := time.Now()
		samples[i] = Sample{Req: reqs[i], Pool: -1}
		cl.send(&samples[i], false)
		samples[i].Latency = time.Since(t0)
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rec := st.Engine.StatsRecorder()
	wg.Add(1)
	go send(0) // holds the only worker, wedged at the evaluate site
	waitFor("the first evaluation", func() bool { return faults.Visits(engine.SiteEvaluate) == 1 })
	wg.Add(1)
	go send(1) // fills the one-deep wait queue
	waitFor("a queued query", func() bool { return rec.Engine.QueueDepth.Load() == 1 })
	wg.Add(1)
	send(2) // shed: 503
	wg.Wait()
	close(release)
	faults.Deactivate(engine.SiteEvaluate)
	wg.Add(1)
	send(3)

	if samples[2].Status != 503 {
		t.Fatalf("third request: status %d, want a 503 shed", samples[2].Status)
	}
	if samples[0].OK || samples[0].Status != 0 {
		t.Fatalf("wedged request: ok=%v status %d, want a client timeout", samples[0].OK, samples[0].Status)
	}
	if !samples[3].OK {
		t.Fatalf("request after release failed: status %d", samples[3].Status)
	}
	attempted, failed := tally(samples)
	if attempted != 4 || failed != 3 {
		t.Fatalf("tally = %d attempted, %d failed; want 4, 3", attempted, failed)
	}
	lat := latencies(samples, nil)
	if !math.IsInf(lat[1], 1) || !math.IsInf(lat[3], 1) {
		t.Fatalf("failed requests must sort as misses: %v", lat)
	}
	timeoutMs := float64(requestTimeout) / float64(time.Millisecond)
	if p50 := quantile(lat, 0.5); p50 != timeoutMs {
		t.Fatalf("p50 with 3 of 4 failed = %v ms, want the %v ms miss bound", p50, timeoutMs)
	}
	// A shed request answers fast; it must not pull the median down.
	if ok := latencies(samples[3:], nil); quantile(ok, 0.5) >= timeoutMs {
		t.Fatal("a successful request reads as a miss")
	}
}

// TestRouteCostCensus recomputes the route cost census the routes pool
// quotas come from. A change to the sampler or to the route search's
// work counts changes it; update routeCostCensus and routeCensusDropped
// to the values printed here, and say so where the change is recorded.
func TestRouteCostCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("draws and searches a few hundred route queries")
	}
	c := testCity(t)
	hist, dropped := routeCensus(c, routeCensusSeed, routeCensusDraws)
	if hist != routeCostCensus || dropped != routeCensusDropped {
		t.Fatalf("route cost census = %v, %d dropped; the code has %v, %d", hist, dropped, routeCostCensus, routeCensusDropped)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the
// workloads and their rates, and the metric names each mode prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if rate, err := rateFromBenchmark("../BENCHMARK.json", w.Name); err != nil || !(rate > 0) {
			t.Fatalf("workload %q: rate %v, %v", w.Name, rate, err)
		}
	}
	want := endToEnd
	if len(b.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(want))
	}
	for i, m := range b.EndToEnd {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Fatalf("end-to-end metric %d is %s/%s, the code prints %s/%s", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Fatalf("per-layer metric %d is %s/%s, the code prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestCalScales checks that each measured cycle is scaled by the mean of
// the calibration windows on either side of it, relative to calRefRPS.
func TestCalScales(t *testing.T) {
	got := calScales([]float64{calRefRPS, calRefRPS / 2, calRefRPS * 1.5})
	want := []float64{0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("calScales gave %d scales for 2 cycles", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scale %d = %v, want %v", i, got[i], want[i])
		}
	}
}
