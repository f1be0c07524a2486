//go:build race

package traj

// raceEnabled reports whether the race detector is active. Under -race
// sync.Pool drops a share of its puts at random, so pooled-scratch
// allocation assertions are meaningless.
const raceEnabled = true
