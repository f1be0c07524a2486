//go:build !linux

package main

import "time"

// waitUntil blocks until due (measured from t0).
func waitUntil(t0 time.Time, due time.Duration) {
	if d := due - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
}
