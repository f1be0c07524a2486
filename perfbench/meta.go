package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// runMeta records what a run measured and where.
func runMeta(c *City, w *Workload, seed int64, seconds float64, traced bool) map[string]any {
	ns := c.Net.Stats()
	sch := w.Sched
	return map[string]any{
		"workload":        w.Name,
		"seed":            seed,
		"seconds":         seconds,
		"traced":          traced,
		"city":            cityName,
		"scale":           cityScale,
		"streets":         ns.NumStreets,
		"segments":        ns.NumSegments,
		"pois":            c.POIs.Len(),
		"photos":          c.Photos.Len(),
		"distinct_reqs":   len(w.Pool),
		"closed_clients":  maxConns,
		"cycles":          sch.Cycles,
		"closed_window_s": sch.Closed.Seconds(),
		"open_window_s":   sch.Open.Seconds(),
		"open_rate_rps":   w.Rate,
		"writes":          len(w.Writes),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
		"go_version":      runtime.Version(),
		"commit":          gitCommit(),
		"source_sha256":   sourceDigest(),
	}
}

// phaseMeta records per-phase sent/succeeded/failed counts and how late
// the open-loop generator sent.
func phaseMeta(r *Result, closed, open, writes []Sample) {
	count := func(ss []Sample) map[string]int {
		m := map[string]int{"sent": len(ss)}
		for i := range ss {
			if ss[i].OK {
				m["succeeded"]++
			} else {
				m["failed"]++
			}
		}
		return m
	}
	r.Meta["closed"] = count(closed)
	r.Meta["open"] = count(open)
	if len(writes) > 0 {
		r.Meta["writer"] = count(writes)
	}
	var lags []float64
	for i := range open {
		lags = append(lags, float64(open[i].Lag)/float64(time.Millisecond))
	}
	lagP99 := 0.0
	if len(lags) > 0 {
		s := sortedCopy(lags)
		lagP99 = quantile(s, 0.99)
		r.Meta["loadgen_lag_ms_p50"] = quantile(s, 0.5)
	}
	r.Meta["loadgen_lag_ms_p99"] = lagP99
}

// gitCommit reads HEAD from a .git directory in the working directory,
// if there is one; benchmark checkouts usually have none, and the
// source digest identifies the code instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return h
}

// sourceDigest hashes the paths and contents of the Go sources and
// module files under the working directory, skipping hidden
// directories (build outputs, VCS data).
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pollEpochs samples the live engine's resident index epochs every
// 10 ms into *max until the returned stop function is called; stop
// waits for the sampler to exit.
func pollEpochs(st *Stack, max *int64) func() {
	if st.Engine == nil || !st.Engine.Live() {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var m atomic.Int64
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if v := st.Engine.StatsRecorder().Ingest.EpochsLive.Load(); v > m.Load() {
				m.Store(v)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		*max = m.Load()
	}
}
