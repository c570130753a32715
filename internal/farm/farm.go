// Package farm simulates the oracle channel of the adversary model (§2.3)
// at device-fleet scale. The paper counts queries as if each were free; the
// real bottleneck of a remote attack is the channel — latency, jitter,
// serialization over a bandwidth cap, loss, and the device pipeline's
// in-flight window. This package prices those: an event-driven simulator (a
// binary-heap scheduler of timestamped events on a virtual clock, event.go)
// models a heterogeneous fleet of simulated accelerators (fleet.go), and
// Transport decorates an oracle.Interface so every round-trip advances the
// virtual clock by its simulated cost. The resulting horizon is the
// predicted wall-clock of the attack over that channel — the number
// `dnnlock farm` sweeps across RTT × bandwidth × loss × fleet mix.
//
// Accounting contract: Transport.Rounds counts every dispatched round-trip,
// including ones the channel lost (the request was sent; a timeout costs
// more wall-clock, not zero); Queries delegates to the base oracle, so lost
// rounds consume no queries. Values returned to the attack are produced by
// the per-device fault stacks (the internal/oracle decorators) and are
// input-addressed, so they do not depend on goroutine scheduling; the
// simulated clock of a concurrent attack is a processing-order
// approximation — causal, but not bit-stable across scheduler interleavings
// — while a serial attack is exactly reproducible.
package farm

import (
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// Config parameterizes a Transport.
type Config struct {
	// Seed drives loss decisions, jitter draws, and device routing. All
	// three are input-addressed (content hash + attempt counter), so the
	// schedule is a function of what is asked, not of when.
	Seed int64
	// RowBytesIn and RowBytesOut are the serialized sizes of one input and
	// one output row; batches pay rows×size over the device's bandwidth.
	RowBytesIn, RowBytesOut int
	// Overhead is the per-message framing cost in bytes (0 → 64).
	Overhead int
	// Span, when non-nil, receives one point event per round — device,
	// rows, simulated send/receive times, loss — gated on the span's
	// tracer being in Detailed mode, so undetailed runs pay nothing.
	Span *obs.Span
}

// Transport is the channel-simulating oracle decorator. Every Query or
// QueryBatch is one round-trip on the virtual clock: issue at the causal
// frontier, serialize up, wait for a device pipeline slot, compute, and
// serialize back down with jitter — or, for a seeded-lost round, time out
// and surface oracle.ErrTransient.
//
// Concurrency model: a round issued while earlier rounds are still in
// flight overlaps them on the virtual clock (its issue time is the causal
// frontier — the latest completion a caller could actually have observed
// at entry), which is what lets the batches of parallel workers
// genuinely pipeline; a round issued after another
// completed is assumed dependent on it and serializes behind it. Safe for
// concurrent use.
type Transport struct {
	cfg   Config
	seed  uint64
	base  oracle.Interface
	fleet []*Device

	mu       sync.Mutex
	eng      sim
	causal   Time              // latest completion any caller has observed
	horizon  Time              // clock high-water: latest scheduled delivery
	attempts map[uint64]uint64 // content hash -> rounds dispatched so far

	rounds atomic.Int64
	lost   atomic.Int64
}

var (
	_ oracle.Interface = (*Transport)(nil)
	_ oracle.Clocked   = (*Transport)(nil)
)

// NewTransport wraps base behind the simulated channel to the given fleet.
// The fleet must have been built over the same base oracle (BuildFleet), so
// query accounting has a single source of truth.
func NewTransport(base oracle.Interface, fleet []*Device, cfg Config) *Transport {
	if cfg.Overhead <= 0 {
		cfg.Overhead = 64
	}
	if len(fleet) == 0 {
		fleet = BuildFleet(base, Mix{}, 1, Channel{}, cfg.Seed)
	}
	return &Transport{
		cfg:      cfg,
		seed:     uint64(cfg.Seed),
		base:     base,
		fleet:    fleet,
		attempts: make(map[uint64]uint64),
	}
}

// transferTime converts a payload over a bandwidth into virtual time;
// non-positive bandwidth means unconstrained.
func transferTime(bytes int, bw float64) Time {
	if bw <= 0 || bytes <= 0 {
		return 0
	}
	return Time(float64(bytes) / bw * 1e9)
}

// dispatch runs one round's timing on the virtual clock and returns the
// serving device, the virtual receive time, and whether the channel lost
// the round. The whole schedule-and-pump runs under the transport lock;
// the caller evaluates on the device stack outside it.
func (t *Transport) dispatch(rows int, h uint64) (dev *Device, recvAt Time, lost bool) {
	t.mu.Lock()
	defer t.mu.Unlock()

	t.rounds.Add(1)
	dev = t.fleet[int(h%uint64(len(t.fleet)))]
	t.attempts[h]++
	attempt := t.attempts[h]
	issueAt := t.causal
	p := dev.Profile

	if unit(splitmix64(h^attempt*0xbf58476d1ce4e5b9)) < p.Loss {
		// The channel ate the request or the response: the caller learns
		// nothing until the timeout expires, then retries. One full round
		// dispatched, zero queries answered.
		lost = true
		recvAt = issueAt + Time(p.Timeout)
		t.lost.Add(1)
	} else {
		half := Time(p.RTT) / 2
		txUp := transferTime(rows*t.cfg.RowBytesIn+t.cfg.Overhead, p.Bandwidth)
		txDown := transferTime(rows*t.cfg.RowBytesOut+t.cfg.Overhead, p.Bandwidth)
		jitter := Time(unit(splitmix64(h^attempt*0x94d049bb133111eb)) * float64(p.Jitter))
		service := Time(rows) * Time(p.ServicePerRow)
		delivered := false
		// The round's event chain: send → arrive → done → deliver. Each leg
		// schedules the next; arrive competes for the device's pipeline
		// window, so a backed-up device queues the request into the future.
		t.eng.schedule(issueAt, func(now Time) {
			t.eng.schedule(now+half+txUp, func(now Time) {
				start := dev.takeSlot(now, service)
				t.eng.schedule(start+service, func(now Time) {
					t.eng.schedule(now+txDown+half+jitter, func(now Time) {
						recvAt = now
						delivered = true
					})
				})
			})
		})
		t.eng.runUntil(func() bool { return delivered })
	}
	if recvAt > t.horizon {
		t.horizon = recvAt
	}
	if sp := t.cfg.Span; sp != nil && sp.Tracer().Detailed() {
		sp.Event("farm_round",
			obs.Int("device", dev.ID), obs.String("class", p.Class),
			obs.Int("rows", rows), obs.Bool("lost", lost),
			obs.Int64("send_ns", int64(issueAt)), obs.Int64("recv_ns", int64(recvAt)))
	}
	return dev, recvAt, lost
}

// complete advances the causal frontier to the round's delivery: from here
// on, new rounds are assumed to (possibly) depend on this response and
// issue no earlier than it.
func (t *Transport) complete(recvAt Time) {
	t.mu.Lock()
	if recvAt > t.causal {
		t.causal = recvAt
	}
	t.mu.Unlock()
}

// Query sends one row over the simulated channel and evaluates it on the
// routed device's fault stack. A channel-lost round returns
// oracle.ErrTransient after its timeout has elapsed on the virtual clock.
func (t *Transport) Query(x []float64) ([]float64, error) {
	dev, recvAt, lost := t.dispatch(1, hashRow(t.seed, x))
	defer t.complete(recvAt)
	if lost {
		return nil, oracle.ErrTransient
	}
	return dev.orc.Query(x)
}

// QueryBatch sends one batch as a single round-trip; serialization cost
// scales with the row count, which is why coalescing rows into fewer
// rounds wins exactly until the bandwidth cap bites. Ownership of the
// pooled result passes through from the device stack on success.
func (t *Transport) QueryBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	dev, recvAt, lost := t.dispatch(x.Rows, hashBatch(t.seed, x))
	defer t.complete(recvAt)
	if lost {
		return nil, oracle.ErrTransient
	}
	return dev.orc.QueryBatch(x)
}

// Queries reports the base oracle's device-query count: lost rounds and
// device-side drops consumed none.
func (t *Transport) Queries() int64 { return t.base.Queries() }

// Rounds reports every round-trip dispatched through the transport,
// including channel-lost ones — the request was sent and its latency paid.
// Device-stack contributions are not re-added: the transport is the single
// round counter for a farm run.
func (t *Transport) Rounds() int64 { return t.rounds.Load() }

// Lost reports how many dispatched rounds the channel lost.
func (t *Transport) Lost() int64 { return t.lost.Load() }

// ResetCounter zeroes the transport's round and loss counters and resets
// every device stack down to the shared base (Flaky layers zero their
// dropped-round contributions; budgets, per their contract, do not refill).
// The virtual clock keeps running — like wall time, it is monotone across
// experiment phases; per-phase costs are deltas of SimElapsed.
func (t *Transport) ResetCounter() {
	t.rounds.Store(0)
	t.lost.Store(0)
	for _, d := range t.fleet {
		d.orc.ResetCounter()
	}
	t.base.ResetCounter()
}

// Softmax reports the base oracle's output mode.
func (t *Transport) Softmax() bool { return t.base.Softmax() }

// SimElapsed reports the virtual clock's high-water mark — the simulated
// wall-clock consumed by all traffic so far. This implements
// oracle.Clocked, so core's phase tracking attributes per-procedure
// simulated time by deltas of it, and the harness reads the final value as
// the predicted attack duration.
func (t *Transport) SimElapsed() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.horizon)
}
