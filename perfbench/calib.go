package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The host the benchmark runs on is a share of a machine whose speed
// drifts: on a 2-vCPU VM a fixed compute loop ran 1316–1831 iterations
// per 2 s over 80 s, and scatter throughput moved by half between runs a
// minute apart, with every other timing (setup, the answer gate, p50)
// moving with it. So each run also times a fixed calibration load of its
// own in short windows between the load windows, and the end-to-end
// timings are scaled to a host on which that calibration runs at
// calRefRPS. The calibration uses only the Go standard library: a
// loopback HTTP server answering a fixed JSON document to maxConns
// closed-loop clients, the same path a benchmark request takes through
// net/http and encoding/json but none of the program's code, so a change
// to the program moves the calibrated metrics exactly as it moves the
// raw ones. The raw figures are printed too.
//
// A calibration window runs while the program is idle, so a program that
// burns CPU while idle would slow the calibration too and hide part of
// that cost; the raw throughput in the report still shows it.
const (
	// calRefRPS is the reference calibration rate: about its median on
	// the 2-vCPU VM the benchmark was tuned on.
	calRefRPS = 16000
	// calWindow is the length of one calibration window.
	calWindow = 300 * time.Millisecond
)

// calStreet mirrors the shape of a k-SOI answer row.
type calStreet struct {
	Name     string
	Interest float64
	Mass     float64
}

// calibrator serves and times the calibration load.
type calibrator struct {
	cl   *Client
	stop func()
	req  *Request
}

func newCalibrator() (*calibrator, error) {
	doc := struct {
		Streets []calStreet `json:"streets"`
	}{}
	for i := 0; i < 20; i++ {
		doc.Streets = append(doc.Streets, calStreet{Name: "Calibration Street " + strconv.Itoa(i), Interest: float64(i) * 1.37, Mass: float64(i) * 2.11})
	}
	url, stop, err := serveLoopback(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		_ = req.URL.Query()
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(doc)
	}))
	if err != nil {
		return nil, err
	}
	return &calibrator{
		cl:   newClient(url, maxConns),
		stop: stop,
		req:  &Request{Method: "GET", Path: "/calibrate?keywords=food,shop&k=20&eps=0.0005"},
	}, nil
}

// Close stops the calibration server and waits for it.
func (c *calibrator) Close() {
	c.cl.Close()
	c.stop()
}

// window runs the calibration load for calWindow and returns the
// requests it completed per second.
func (c *calibrator) window() float64 {
	var n atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < calWindow {
				if st, _, _, _, err := c.cl.Do(c.req, false); err == nil && st == http.StatusOK {
					n.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(n.Load()) / time.Since(t0).Seconds()
}

// calScales returns, for each measured cycle k, the host's speed during
// it relative to the reference: the mean of the calibration windows that
// bracket the cycle (cal[k] just before it, cal[k+1] just after), over
// calRefRPS. A rate measured in the cycle is divided by its scale, a
// time multiplied by it.
func calScales(cal []float64) []float64 {
	out := make([]float64, 0, len(cal)-1)
	for k := 0; k+1 < len(cal); k++ {
		out = append(out, (cal[k]+cal[k+1])/2/calRefRPS)
	}
	return out
}
