// Package oracle implements the attacker-facing query interface of the
// adversary model (§2.3): the adversary owns a working device and can query
// it with arbitrary inputs a reasonable number of times, observing the
// logits. The oracle counts queries so experiments can report the paper's
// query-complexity metric.
//
// The paper assumes a perfectly reliable device returning exact
// full-precision logits. Interface is the boundary that lets experiments
// relax that assumption: Oracle is the clean reference implementation, and
// the decorators in fault.go (Quantized, Noisy, LabelOnly, Budgeted,
// Flaky) degrade it in seeded, composable ways so the attack's fidelity
// and query complexity can be evaluated under realistic device access.
//
// Beyond per-query counts, implementations track round-trips: Rounds()
// reports how many Query/QueryBatch calls the attacker paid, the quantity
// that dominates wall clock against a networked device. Oracles whose
// channel is time-simulated additionally implement Clocked, exposing the
// simulated channel clock (farm.Transport is the canonical one); the
// attack surfaces it as Result.SimTime and the sim_ns trace fields.
package oracle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/rot"
	"dnnlock/internal/tensor"
)

// Interface is the oracle boundary consumed by the attacks, the harness,
// and the benches. Implementations must be safe for concurrent use.
//
// Query and QueryBatch return the device's response or an error describing
// why no response was produced; callers must not interpret a nil error as
// an exact answer (decorators may quantize, perturb, or truncate the
// response while still succeeding). Returned slices and matrices are owned
// by the caller; QueryBatch results come from the workspace pool and are
// recycled with tensor.PutMatrix.
type Interface interface {
	// Query runs one inference and returns the output vector.
	Query(x []float64) ([]float64, error)
	// QueryBatch runs one inference per row of x and returns the pooled
	// output matrix, one row per input row.
	QueryBatch(x *tensor.Matrix) (*tensor.Matrix, error)
	// Queries returns the number of device queries consumed so far.
	Queries() int64
	// Rounds returns the number of oracle round-trips consumed so far:
	// each Query and each QueryBatch call is one round, regardless of how
	// many rows it carries. Rounds is the metric that dominates a remote
	// attack (latency per round-trip), where Queries models the device's
	// per-inference cost.
	//
	// Failed round-trips count: a round is consumed when the request is
	// sent, whether or not a usable response comes back — a Flaky drop or
	// a device-error return burns at least as much wall-clock as a
	// success. The exception is a refusal that never reaches the channel
	// (Budgeted's ErrBudgetExhausted is decided client-side), which
	// consumes nothing.
	Rounds() int64
	// ResetCounter zeroes the query and round counters (used between
	// experiment phases). It does not refill any query budget. Decorators
	// that keep their own round contributions (Flaky's dropped calls, a
	// farm Transport's dispatched rounds) must zero those too, so a reset
	// zeroes Rounds at every layer of a stack.
	ResetCounter()
	// Softmax reports whether responses are probabilities rather than
	// logits.
	Softmax() bool
}

// Clocked is the optional interface of oracles whose channel runs on a
// simulated clock (a farm.Transport). SimElapsed reports the virtual time
// consumed so far; callers that price round-trips (core's phase tracking,
// the harness) take deltas of it exactly as they take deltas of Rounds.
// Implementations must be safe for concurrent use. Decorators that wrap a
// Clocked oracle need not forward it — the transport sits outermost in
// practice.
type Clocked interface {
	SimElapsed() time.Duration
}

// Errors surfaced at the oracle boundary. Callers distinguish transient
// failures (worth retrying) from budget exhaustion (terminal).
var (
	// ErrBudgetExhausted is returned by a Budgeted oracle once the query
	// cap is spent. It is terminal: retrying cannot succeed.
	ErrBudgetExhausted = errors.New("oracle: query budget exhausted")
	// ErrTransient is returned for transient device failures (a Flaky
	// oracle's dropped queries). Retrying the same query may succeed.
	ErrTransient = errors.New("oracle: transient device failure")
)

// BatchError reports a QueryBatch failure with the index of the first row
// that failed. Rows before Row were evaluated successfully (their results
// are discarded along with the pooled output buffer); rows at and after Row
// may not have been attempted.
type BatchError struct {
	Row int
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("oracle: batch row %d: %v", e.Row, e.Err)
}

// Unwrap exposes the underlying cause so errors.Is sees ErrTransient and
// ErrBudgetExhausted through the batch wrapper.
func (e *BatchError) Unwrap() error { return e.Err }

// Oracle wraps a provisioned device and counts queries. Safe for concurrent
// use. The adversary model (§2.3) lets the end-user observe either the
// logits or the softmax output vector; softmax mode models the latter.
type Oracle struct {
	dev     *rot.Device
	softmax bool
	queries atomic.Int64
	rounds  atomic.Int64
}

var _ Interface = (*Oracle)(nil)

// New provisions a fresh device with the correct key, binds the locked
// model, and returns the resulting oracle — the experimental stand-in for
// "a malicious end-user who bought a licensed accelerator".
func New(model *hpnn.LockedModel, correctKey hpnn.Key) *Oracle {
	dev := rot.Provision("oracle-device", correctKey, []byte("attestation-secret"))
	if err := dev.Bind(model); err != nil {
		panic("oracle: " + err.Error())
	}
	return &Oracle{dev: dev}
}

// NewSoftmax is New for a device that exposes only softmax probabilities.
func NewSoftmax(model *hpnn.LockedModel, correctKey hpnn.Key) *Oracle {
	o := New(model, correctKey)
	o.softmax = true
	return o
}

// FromDevice wraps an already-provisioned, bound device.
func FromDevice(dev *rot.Device) *Oracle { return &Oracle{dev: dev} }

// Softmax reports whether the oracle returns probabilities rather than
// logits.
func (o *Oracle) Softmax() bool { return o.softmax }

// Query runs one inference and returns the logits (or the softmax output
// vector in softmax mode). Device errors are returned, not panicked: the
// attack path must be able to survive a degraded device.
func (o *Oracle) Query(x []float64) ([]float64, error) {
	o.queries.Add(1)
	o.rounds.Add(1)
	return o.evalRow(x)
}

// QueryBatch runs one inference per row and returns the output matrix.
// Rows are evaluated concurrently (the device is safe for concurrent
// inference), sharded over tensor.Parallelism() goroutines. Each row lands
// in its own output slot, so the result is identical to the serial loop.
//
// The result comes from the workspace pool (per-invocation callers like the
// learning attack recycle it with tensor.PutMatrix); on error the pooled
// buffer is released before the error is surfaced, so the caller owns a
// buffer only when err is nil. A 0-row input yields an empty pooled 0×0
// matrix, not nil, so callers may PutMatrix or iterate it unconditionally.
func (o *Oracle) QueryBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	o.queries.Add(int64(x.Rows))
	o.rounds.Add(1)
	if x.Rows == 0 {
		return tensor.GetMatrix(0, 0), nil
	}
	// First row sizes the output matrix.
	y0, err := o.dev.Evaluate(x.Row(0))
	if err != nil {
		return nil, &BatchError{Row: 0, Err: err}
	}
	if o.softmax {
		y0 = tensor.Softmax(y0)
	}
	out := tensor.GetMatrix(x.Rows, len(y0))
	out.SetRow(0, y0)
	rest := x.Rows - 1
	workers := tensor.Parallelism()
	if workers > rest {
		workers = rest
	}
	if workers <= 1 {
		for i := 1; i < x.Rows; i++ {
			y, err := o.dev.Evaluate(x.Row(i))
			if err != nil {
				tensor.PutMatrix(out)
				return nil, &BatchError{Row: i, Err: err}
			}
			if o.softmax {
				tensor.SoftmaxInto(out.Row(i), y)
			} else {
				out.SetRow(i, y)
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	errRows := make([]int, workers)
	chunk := (rest + workers - 1) / workers
	for w, lo := 0, 1; lo < x.Rows; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > x.Rows {
			hi = x.Rows
		}
		wg.Add(1)
		//lint:ignore nakedgo fan-out sized by tensor.Parallelism; each goroutine writes a disjoint row range of out
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				y, err := o.dev.Evaluate(x.Row(i))
				if err != nil {
					errs[w], errRows[w] = err, i
					return
				}
				if o.softmax {
					tensor.SoftmaxInto(out.Row(i), y)
				} else {
					out.SetRow(i, y)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	// Workers cover disjoint ascending row ranges, so the lowest-index
	// failure across workers is the first failing row of the batch —
	// deterministic regardless of goroutine scheduling.
	first := -1
	for w, err := range errs {
		if err != nil && (first == -1 || errRows[w] < errRows[first]) {
			first = w
		}
	}
	if first != -1 {
		// Surface on the caller's goroutine, like the serial path. The
		// pooled buffer goes back first: an error exit owns nothing.
		tensor.PutMatrix(out)
		return nil, &BatchError{Row: errRows[first], Err: errs[first]}
	}
	return out, nil
}

// evalRow runs one uncounted device inference (QueryBatch bulk-counts).
func (o *Oracle) evalRow(x []float64) ([]float64, error) {
	y, err := o.dev.Evaluate(x)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if o.softmax {
		return tensor.Softmax(y), nil
	}
	return y, nil
}

// Queries returns the total number of queries so far.
func (o *Oracle) Queries() int64 { return o.queries.Load() }

// Rounds returns the total number of oracle round-trips so far (one per
// Query or QueryBatch call).
func (o *Oracle) Rounds() int64 { return o.rounds.Load() }

// ResetCounter zeroes the query and round counters (used between
// experiment phases).
func (o *Oracle) ResetCounter() {
	o.queries.Store(0)
	o.rounds.Store(0)
}
