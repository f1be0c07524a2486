package remote

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHedgeDelayZeroAllocs pins the adaptive hedge delay, which is
// resolved on every retry round, at zero allocations, and checks its p95
// against a plain sorted copy of the window as the window fills and
// wraps.
func TestHedgeDelayZeroAllocs(t *testing.T) {
	c, err := NewClient(Config{Addrs: [][]string{{"127.0.0.1:1"}}, AttemptTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ss := c.shards[0]
	rng := rand.New(rand.NewSource(7))
	var all []time.Duration
	for i := 0; i < 3*latencyWindow; i++ {
		d := time.Duration(rng.Intn(20_000)) * time.Microsecond
		ss.observe(d)
		all = append(all, d)
		got, ok := ss.p95()
		if n := len(all); n < minHedgeSamples {
			if ok {
				t.Fatalf("p95 trusted after %d samples, want at least %d", n, minHedgeSamples)
			}
			continue
		}
		window := append([]time.Duration(nil), all[max(0, len(all)-latencyWindow):]...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		if want := window[(len(window)*95+99)/100-1]; !ok || got != want {
			t.Fatalf("after %d samples: p95 = %v, %v; want %v", len(all), got, ok, want)
		}
	}
	if d := c.hedgeDelay(ss); d <= 0 {
		t.Fatalf("hedge delay %v with a full window, want adaptive > 0", d)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.hedgeDelay(ss) }); allocs != 0 {
		t.Fatalf("hedgeDelay allocated %.1f objects/op, want 0", allocs)
	}
}
