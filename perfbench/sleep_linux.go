//go:build linux

package main

import (
	"syscall"
	"time"
)

// waitUntil blocks until due (measured from t0) in a nanosleep system
// call. Go's timers wake a process with idle Ps at millisecond
// granularity, which would make the open-loop generator up to a
// millisecond late on every request and add that to every latency.
func waitUntil(t0 time.Time, due time.Duration) {
	for {
		d := due - time.Since(t0)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop re-reads the clock
	}
}
