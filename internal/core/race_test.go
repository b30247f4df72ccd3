//go:build race

package core_test

// raceEnabled reports a -race build (sync.Pool then drops Puts at random, so
// allocation guards over pooled scratch do not hold).
const raceEnabled = true
