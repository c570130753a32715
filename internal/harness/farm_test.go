package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/farm"
	"dnnlock/internal/oracle"
)

// TestFarmZeroChannelIsPassThrough pins the transport's transparency
// property end to end: a zero-latency, unconstrained, lossless clean-mix
// farm cell must recover exactly the same key with exactly the same query
// and round counts as core.Run on an undecorated oracle with the same seed
// — and consume zero virtual time doing it. This is the farm analogue of
// TestRobustnessCleanCellMatchesDirectRun.
func TestFarmZeroChannelIsPassThrough(t *testing.T) {
	sc := TinyScale()
	p, err := prepare("mlp", 6, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	mix := farm.Mix{Name: "clean", Classes: []farm.Class{{Name: "clean", Weight: 1}}}
	ch := farm.Channel{RTT: 0, Jitter: -1, Bandwidth: -1, ServicePerRow: -1}
	base := oracle.New(p.lm, p.key)
	fleet := farm.BuildFleet(base, mix, 16, ch, sc.Seed+5)
	for _, d := range fleet {
		d.Profile.ServicePerRow = 0 // withDefaults floors it; force free compute
	}
	tr := farm.NewTransport(base, fleet, farm.Config{Seed: sc.Seed + 5})
	cfg := sc.AttackCfg
	cfg.Seed = sc.Seed + 2
	farmed, err := core.Run(p.lm.WhiteBox(), p.lm.Spec, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := core.Run(p.lm.WhiteBox(), p.lm.Spec, oracle.New(p.lm, p.key), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Key {
		if farmed.Key[i] != direct.Key[i] {
			t.Fatalf("key bit %d differs: farm %v, direct %v", i, farmed.Key[i], direct.Key[i])
		}
	}
	if farmed.Queries != direct.Queries {
		t.Fatalf("farm run issued %d queries, direct run %d", farmed.Queries, direct.Queries)
	}
	if farmed.Rounds != direct.Rounds {
		t.Fatalf("farm run used %d rounds, direct run %d", farmed.Rounds, direct.Rounds)
	}
	if farmed.Key.Fidelity(p.key) != direct.Key.Fidelity(p.key) {
		t.Fatalf("fidelity differs: farm %.4f, direct %.4f",
			farmed.Key.Fidelity(p.key), direct.Key.Fidelity(p.key))
	}
	if tr.SimElapsed() != 0 {
		t.Fatalf("zero channel consumed %v of virtual time", tr.SimElapsed())
	}
	if farmed.SimTime != 0 {
		t.Fatalf("result reports %v simulated time on a free channel", farmed.SimTime)
	}
}

// TestRunFarmSmallFleet runs one nontrivial sweep point end to end on a
// small fleet: full fidelity, a positive virtual-clock horizon, and rounds
// no fewer than the direct run (channel loss only adds rounds). It sweeps
// the point twice: the simulated wall-clock, rounds and losses are one
// number, the same on every run at any worker count.
func TestRunFarmSmallFleet(t *testing.T) {
	sc := TinyScale()
	sw := FarmSweep{
		Devices:    64,
		RTTs:       []time.Duration{5 * time.Millisecond},
		Bandwidths: []float64{1.25e6},
		Losses:     []float64{0.005, 0.005},
		MixNames:   []string{"mixed"},
	}
	rows, err := RunFarm(sc, "mlp", 6, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	r, again := rows[0], rows[1]
	if again.SimSeconds != r.SimSeconds || again.Rounds != r.Rounds || again.Lost != r.Lost {
		t.Fatalf("same point swept twice: %v s / %d rounds / %d lost, then %v s / %d rounds / %d lost",
			r.SimSeconds, r.Rounds, r.Lost, again.SimSeconds, again.Rounds, again.Lost)
	}
	if r.Err != nil {
		t.Fatalf("sweep point errored: %v", r.Err)
	}
	if r.Fidelity != 1 {
		t.Fatalf("fidelity %.4f under in-regime degradation, want 1", r.Fidelity)
	}
	if r.SimSeconds <= 0 {
		t.Fatalf("SimSeconds = %v, want > 0 on a 5ms-RTT channel", r.SimSeconds)
	}
	if r.Rounds < r.Queries/64 || r.Rounds <= 0 {
		t.Fatalf("implausible rounds %d for %d queries", r.Rounds, r.Queries)
	}
	if r.Lost < 0 || r.Rounds < r.Lost {
		t.Fatalf("lost %d out of %d rounds", r.Lost, r.Rounds)
	}
}

// TestFarmCSV covers the CSV emitter, including the error column.
func TestFarmCSV(t *testing.T) {
	rows := []FarmRow{
		{Model: "mlp", KeyBits: 8, Mix: "mixed", Devices: 1000,
			RTT: 20 * time.Millisecond, Bandwidth: 1.25e6, Loss: 0.01,
			Fidelity: 1, Queries: 92, Rounds: 40, Lost: 2, Degraded: 0,
			SimSeconds: 1.25, CPUSeconds: 0.4},
	}
	var buf bytes.Buffer
	WriteFarmCSV(rows, &buf)
	got := buf.String()
	if !strings.HasPrefix(got, "model,key_bits,mix,devices,rtt_ms,bandwidth_mbps") {
		t.Fatalf("missing header: %q", got)
	}
	if !strings.Contains(got, "mlp,8,mixed,1000,20,10,0.01,1.0000,92,40,2,0,1.250,0.40") {
		t.Fatalf("row malformed: %q", got)
	}
}
