package main

import (
	"bytes"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load generator's connection budget: the benchmark box
// has 2 CPUs, so the load comes from one process over at most 2
// connections (the live writer uses one more of its own).
const maxConns = 2

// requestTimeout bounds one request; a request that takes longer fails.
// A failed request counts as missing every latency limit, and a
// percentile that lands on one reports this bound.
const requestTimeout = 10 * time.Second

// A run alternates closed-loop and open-loop windows: each cycle of
// about cycleSeconds gives closedShare to a closed-loop window, ends with
// a calibration window (calib.go) and gives the rest to an open-loop
// window. A disturbance shorter than the run (a neighbour's burst, a GC
// storm) then lands in some windows of both phases, and the run reports
// medians over windows.
const (
	cycleSeconds = 2.0
	closedShare  = 0.4
)

// warmupCycles unmeasured cycles open every run. A publish empties the
// result cache and starts a new index epoch, and live's throughput took
// about three cycles to climb back to its steady level; the measured
// cycles start after that, so their windows sample one steady state
// rather than the tail of a ramp.
const warmupCycles = 3

// Schedule is the cycle layout of one run.
type Schedule struct {
	Cycles       int
	Closed, Open time.Duration
	OpenPerCycle int
	OpenRate     float64
}

func newSchedule(seconds, rate float64) Schedule {
	n := int(math.Round(seconds / cycleSeconds))
	if n < 1 {
		n = 1
	}
	cycle := seconds / float64(n)
	per := int(rate * ((1-closedShare)*cycle - calWindow.Seconds()))
	if per < 1 {
		per = 1
	}
	return Schedule{
		Cycles:       n,
		Closed:       time.Duration(closedShare * cycle * float64(time.Second)),
		Open:         time.Duration(float64(per) / rate * float64(time.Second)),
		OpenPerCycle: per,
		OpenRate:     rate,
	}
}

// Sample is one sent request.
type Sample struct {
	Req *Request
	// Pool is the request's index in the workload pool, -1 for writes.
	Pool int32
	// Win is the cycle the request belongs to (negative: warm-up); InWindow marks a
	// closed-loop request that completed before its window closed.
	Win      int
	InWindow bool
	// Start is when the request was due (open loop, writer) or sent
	// (closed loop), from the start of the load; Lag is how late it was
	// sent and End when its last response byte arrived.
	Start, Lag, End time.Duration
	// Latency runs from Start to End.
	Latency time.Duration
	OK      bool
	// Status is the HTTP status, 0 on a transport error or timeout.
	Status int
	Hash   uint64
	Bytes  int
	// Body is kept for writer responses only (checked after the run).
	Body []byte
}

// Client sends benchmark requests over a bounded connection pool.
type Client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Do sends r and returns its status, body hash and size; keep asks for
// the body too.
func (c *Client) Do(r *Request, keep bool) (status int, hash uint64, n int, body []byte, err error) {
	var rd io.Reader
	if r.Body != nil {
		rd = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, c.base+r.Path, rd)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	var w io.Writer = h
	var buf bytes.Buffer
	if keep {
		w = io.MultiWriter(h, &buf)
	}
	cnt, err := io.Copy(w, resp.Body)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return resp.StatusCode, h.Sum64(), int(cnt), buf.Bytes(), nil
}

// send issues one request and fills in the outcome fields of s.
func (c *Client) send(s *Sample, keep bool) {
	status, hash, n, body, err := c.Do(s.Req, keep)
	s.Status, s.Hash, s.Bytes, s.Body = status, hash, n, body
	s.OK = err == nil && status == http.StatusOK
}

// Load is what the load phases sent, tagged by cycle.
type Load struct {
	Closed, Open []Sample
	// ClosedWrites and OpenWrites are the live writer's requests sent
	// during closed and open windows.
	ClosedWrites, OpenWrites []Sample
	// Cal holds the calibration rates: Cal[0] from just before the first
	// measured cycle, Cal[k+1] from the end of measured cycle k.
	Cal []float64
}

// runLoad runs warmupCycles warm-up cycles (negative Win, left out of
// every metric) and then the schedule's measured cycles against the
// workload from t0; measuring is called between the two. wc, when the
// workload writes, is the live writer's own connection. The warm-up
// puts the system in the state every measured cycle starts from: for
// live, settled after a publish. The last warm-up cycle and every
// measured cycle end with a calibration window.
func runLoad(c, wc *Client, w *Workload, sch Schedule, t0 time.Time, measuring func(), cal *calibrator) Load {
	var (
		l    Load
		next atomic.Int64
		nw   int
	)
	// window runs fn while the window's share of the writes is sent
	// alongside it.
	window := func(k int, from, length time.Duration, fn func()) []Sample {
		var ws []Sample
		done := make(chan struct{})
		if wc != nil && nw < len(w.Writes) {
			batch := w.Writes[nw:min(nw+writesPerWindow, len(w.Writes))]
			nw += len(batch)
			go func() {
				defer close(done)
				ws = runWrites(wc, batch, k, t0, from, length)
			}()
		} else {
			close(done)
		}
		fn()
		<-done
		return ws
	}
	at := time.Duration(0)
	for k := -warmupCycles; k < sch.Cycles; k++ {
		if k == 0 {
			measuring()
		}
		from := at
		l.ClosedWrites = append(l.ClosedWrites, window(k, from, sch.Closed, func() {
			l.Closed = append(l.Closed, runClosed(c, w, &next, k, t0, from, from+sch.Closed)...)
		})...)
		at = max(from+sch.Closed, time.Since(t0))
		from = at
		lo := (k + warmupCycles) * sch.OpenPerCycle
		l.OpenWrites = append(l.OpenWrites, window(k, from, sch.Open, func() {
			l.Open = append(l.Open, runOpen(c, w, w.Open[lo:lo+sch.OpenPerCycle], sch.OpenRate, k, t0, from)...)
		})...)
		// The open window's stragglers may finish after its nominal end.
		at = max(from+sch.Open, time.Since(t0))
		if k >= -1 {
			l.Cal = append(l.Cal, cal.window())
			at = time.Since(t0)
		}
	}
	return l
}

// runClosed runs one closed-loop window: maxConns clients, each sending
// the next request of the closed stream only after its previous reply,
// until the window ends at `to` (from t0).
func runClosed(c *Client, w *Workload, next *atomic.Int64, win int, t0 time.Time, from, to time.Duration) []Sample {
	waitUntil(t0, from)
	out := make([][]Sample, maxConns)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= to {
					return
				}
				idx := w.Closed[int(next.Add(1)-1)%len(w.Closed)]
				s := Sample{Req: w.Pool[idx], Pool: idx, Win: win, Start: start}
				c.send(&s, false)
				s.End = time.Since(t0)
				s.Latency = s.End - start
				s.InWindow = s.End <= to
				out[i] = append(out[i], s)
			}
		}(i)
	}
	wg.Wait()
	var all []Sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// runOpen runs one open-loop window: request i of idxs is due at
// from + i/rate and is sent then, whatever the state of earlier
// requests; its latency runs from its due time. It returns once every
// request has completed.
func runOpen(c *Client, w *Workload, idxs []int32, rate float64, win int, t0 time.Time, from time.Duration) []Sample {
	out := make([]Sample, len(idxs))
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for i, idx := range idxs {
		due := from + time.Duration(float64(i)*interval)
		waitUntil(t0, due)
		out[i] = Sample{Req: w.Pool[idx], Pool: idx, Win: win, Start: due, Lag: time.Since(t0) - due}
		wg.Add(1)
		go func(s *Sample) {
			defer wg.Done()
			c.send(s, false)
			s.End = time.Since(t0)
			s.Latency = s.End - s.Start
		}(&out[i])
	}
	wg.Wait()
	return out
}

// runWrites sends one window's writes in order, write i due at
// from + i·length/len(ws), each after the previous reply; latency runs
// from the due time, so a slow publish delays the writes behind it.
func runWrites(c *Client, ws []*Request, win int, t0 time.Time, from, length time.Duration) []Sample {
	out := make([]Sample, len(ws))
	for i, r := range ws {
		due := from + time.Duration(i)*length/time.Duration(len(ws))
		waitUntil(t0, due)
		s := &out[i]
		*s = Sample{Req: r, Pool: -1, Win: win, Start: due, Lag: time.Since(t0) - due}
		c.send(s, true)
		s.End = time.Since(t0)
		s.Latency = s.End - s.Start
	}
	return out
}

// latencies returns the phase's latencies in ms, sorted, with failed
// requests at +Inf: a failure misses every latency limit.
func latencies(ss []Sample, keep func(*Sample) bool) []float64 {
	var out []float64
	for i := range ss {
		s := &ss[i]
		if keep != nil && !keep(s) {
			continue
		}
		if s.OK {
			out = append(out, float64(s.Latency)/float64(time.Millisecond))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quantile is the nearest-rank q-quantile of sorted values; a rank that
// lands on a failed request reports requestTimeout. NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	v := sorted[rank]
	if math.IsInf(v, 1) {
		return float64(requestTimeout) / float64(time.Millisecond)
	}
	return v
}

// windowRates returns each closed-loop window's requests completed
// successfully within the window, per second.
func windowRates(ss []Sample, sch Schedule) []float64 {
	rates := make([]float64, sch.Cycles)
	for i := range ss {
		if ss[i].OK && ss[i].InWindow && ss[i].Win >= 0 {
			rates[ss[i].Win]++
		}
	}
	for i := range rates {
		rates[i] /= sch.Closed.Seconds()
	}
	return rates
}

// windowMedians returns each open-loop window's median latency, by
// cycle; every open window holds at least one request.
func windowMedians(ss []Sample, cycles int) []float64 {
	byWin := make([][]Sample, cycles)
	for _, s := range ss {
		if s.Win >= 0 {
			byWin[s.Win] = append(byWin[s.Win], s)
		}
	}
	out := make([]float64, cycles)
	for k, win := range byWin {
		out[k] = quantile(latencies(win, nil), 0.5)
	}
	return out
}
