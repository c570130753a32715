package harness

import (
	"sync"
	"testing"

	"dnnlock/internal/core"
)

var (
	lenet6Once sync.Once
	lenet6     *Cell
	lenet6Err  error
)

// lenet6Cell prepares the tiny LeNet 6-bit cell once per test binary, so
// -count repetitions pay for its training only once.
func lenet6Cell(t *testing.T) *Cell {
	t.Helper()
	lenet6Once.Do(func() { lenet6, lenet6Err = PrepareCell("lenet", 6, TinyScale(), nil) })
	if lenet6Err != nil {
		t.Fatal(lenet6Err)
	}
	return lenet6
}

// TestConcurrentAttacksOnOneCell runs two attacks at once on WhiteBox
// clones of one cell, the way two dnnlockd jobs on one cell do. Each clone
// owns its layers' training state, so both must report exactly the serial
// run's key and query count. Run under -race.
func TestConcurrentAttacksOnOneCell(t *testing.T) {
	c := lenet6Cell(t)
	cfg := c.DecryptConfig()
	cfg.Workers = 1
	serial, err := core.Run(c.WhiteBox(), c.Spec(), c.NewOracle(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*core.Result, 2)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = core.Run(c.WhiteBox(), c.Spec(), c.NewOracle(), cfg)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent attack %d: %v", i, errs[i])
		}
		if res.Key.String() != serial.Key.String() || res.Queries != serial.Queries {
			t.Errorf("concurrent attack %d: key %s, %d queries; serial run: key %s, %d queries",
				i, res.Key, res.Queries, serial.Key, serial.Queries)
		}
	}
}
