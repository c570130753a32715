//go:build race

package nn_test

func init() { raceEnabled = true }
