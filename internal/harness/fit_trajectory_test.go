package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/farm"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
)

var update = flag.Bool("update", false, "rewrite testdata fixtures from the current code")

// fitRecord is one §3.6 learning-attack fit as its "fit" span records it.
type fitRecord struct {
	Site   int     `json:"site"`
	Bits   int     `json:"bits"`
	Epochs int     `json:"epochs"`
	Loss   float64 `json:"loss"`
}

// cellTrajectory is one attack's pinned outcome: the recovered key and the
// procedure that decided each bit, the oracle cost in queries and rounds
// (in total and per procedure), the white-box bisection effort, the
// decisions degraded to ⊥, the simulated channel time of a farm cell, and
// every fit in the order the attack ran them.
type cellTrajectory struct {
	Cell          string                      `json:"cell"`
	Key           string                      `json:"key"`
	Origins       []string                    `json:"origins"`
	DecQueries    int64                       `json:"dec_queries"`
	Rounds        int64                       `json:"rounds"`
	QueriesByProc map[metrics.Procedure]int64 `json:"queries_by_proc"`
	RoundsByProc  map[metrics.Procedure]int64 `json:"rounds_by_proc"`
	BisectRounds  int64                       `json:"bisect_rounds"`
	BisectProbes  int64                       `json:"bisect_probes"`
	Degraded      int                         `json:"degraded"`
	// Durations encode as integer nanoseconds.
	SimTime   time.Duration                       `json:"sim_ns,omitempty"`
	SimByProc map[metrics.Procedure]time.Duration `json:"sim_ns_by_proc,omitempty"`
	Fits      []fitRecord                         `json:"fits"`
}

// attackInput is everything one pinned attack runs on.
type attackInput struct {
	white *nn.Network
	spec  hpnn.LockSpec
	orc   oracle.Interface
	cfg   core.Config
}

// trajectoryCell names one pinned attack and builds its input.
type trajectoryCell struct {
	name  string
	input func(t *testing.T) attackInput
}

// trajectoryCells are the pinned attacks: the tiny Table 1 cells plus
// LeNet-6 seeds 2–3, the three §3.9 locks of examples/variants, the
// degraded rows of `dnnlock robust -model mlp -bits 8 -scale tiny`, and the
// MLP-8 cell behind a zero farm channel and behind farm-serial's lossy
// mixed fleet.
func trajectoryCells() []trajectoryCell {
	prepared := map[string]*Cell{}
	cell := func(t *testing.T, model string, bits int, seed int64) *Cell {
		t.Helper()
		name := fmt.Sprintf("%s-%d-seed%d", model, bits, seed)
		if c, ok := prepared[name]; ok {
			return c
		}
		sc := TinyScale()
		sc.Seed = seed
		c, err := PrepareCell(model, bits, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		prepared[name] = c
		return c
	}
	direct := func(model string, bits int, seed int64) trajectoryCell {
		return trajectoryCell{
			name: fmt.Sprintf("%s-%d-seed%d", model, bits, seed),
			input: func(t *testing.T) attackInput {
				c := cell(t, model, bits, seed)
				return attackInput{c.WhiteBox(), c.Spec(), c.NewOracle(), c.DecryptConfig()}
			},
		}
	}
	faulty := func(name string, spec FaultySpec) trajectoryCell {
		return trajectoryCell{
			name: "mlp-8-seed1-" + name,
			input: func(t *testing.T) attackInput {
				c := cell(t, "mlp", 8, 1)
				orc, cfg := c.FaultyOracle(spec, c.DecryptConfig())
				return attackInput{c.WhiteBox(), c.Spec(), orc, cfg}
			},
		}
	}
	farmed := func(name, mix string, ch farm.Channel) trajectoryCell {
		return trajectoryCell{
			name: "mlp-8-seed1-" + name,
			input: func(t *testing.T) attackInput {
				c := cell(t, "mlp", 8, 1)
				tr, cfg, err := c.FarmOracle(mix, 1000, ch, c.DecryptConfig())
				if err != nil {
					t.Fatal(err)
				}
				return attackInput{c.WhiteBox(), c.Spec(), tr, cfg}
			},
		}
	}
	cells := []trajectoryCell{
		direct("lenet", 6, 1), direct("lenet", 6, 2), direct("lenet", 6, 3),
		direct("resnet", 4, 1), direct("vtransformer", 4, 1),
		direct("mlp", 4, 1), direct("mlp", 8, 1), direct("lenet", 4, 1),
	}
	for i, v := range []struct {
		scheme hpnn.Scheme
		alpha  float64
	}{{hpnn.Scaling, 0.5}, {hpnn.BiasShift, 0.8}, {hpnn.WeightPerturb, 1.1}} {
		// The variants example locks a fresh TinyMLP per scheme at rng seed
		// 100+i and attacks it at seed i+1, with negation at i = 0.
		i, v := i+1, v
		cells = append(cells, trajectoryCell{
			name: "variant-" + v.scheme.String(),
			input: func(t *testing.T) attackInput {
				rng := rand.New(rand.NewSource(int64(100 + i)))
				locked, secret := hpnn.Lock(models.TinyMLP(rng), hpnn.Config{
					Scheme: v.scheme, Alpha: v.alpha, KeyBits: 8, Rng: rng,
				})
				cfg := core.DefaultConfig()
				cfg.Seed = int64(i + 1)
				return attackInput{locked.WhiteBox(), locked.Spec, oracle.New(locked, secret), cfg}
			},
		})
	}
	for _, sigma := range []float64{1e-5, 1e-4, 1e-3} {
		cells = append(cells, faulty(fmt.Sprintf("sigma%g", sigma), FaultySpec{Sigma: sigma}))
	}
	for _, qb := range []int{24, 16, 10} {
		cells = append(cells, faulty(fmt.Sprintf("quant%d", qb), FaultySpec{QuantBits: qb}))
	}
	return append(cells,
		farmed("farm-zero", "clean", farm.Channel{Jitter: -1, Bandwidth: -1, ServicePerRow: -1}),
		farmed("farm-mixed", "mixed", farm.Channel{RTT: 20 * time.Millisecond, Bandwidth: 10e6 / 8, Loss: 0.01}),
	)
}

// runTrajectory attacks one input with a detail-tracing tracer and one
// worker, and reads its fit spans back from the exported trace.
func runTrajectory(t *testing.T, name string, in attackInput) cellTrajectory {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.WithSink(&buf))
	cfg := in.cfg
	cfg.Workers = 1
	cfg.Tracer = tr
	res, err := core.Run(in.white, in.spec, in.orc, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.Spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	out := cellTrajectory{
		Cell:          name,
		Key:           res.Key.String(),
		Origins:       make([]string, len(res.Origins)),
		DecQueries:    res.Queries,
		Rounds:        res.Rounds,
		QueriesByProc: res.QueriesByProc,
		RoundsByProc:  res.RoundsByProc,
		BisectRounds:  res.BisectRounds,
		BisectProbes:  res.BisectProbes,
		Degraded:      res.Degraded,
		SimTime:       res.SimTime,
		SimByProc:     res.SimByProc,
		Fits:          []fitRecord{},
	}
	for i, o := range res.Origins {
		out.Origins[i] = o.String()
	}
	for _, s := range spans {
		if s.Name != "fit" {
			continue
		}
		out.Fits = append(out.Fits, fitRecord{
			Site:   attrInt(t, s, "site"),
			Bits:   attrInt(t, s, "bits"),
			Epochs: attrInt(t, s, "epochs"),
			Loss:   s.Attrs["loss"].(float64),
		})
	}
	return out
}

func attrInt(t *testing.T, s obs.SpanRecord, key string) int {
	t.Helper()
	v, ok := s.Attrs[key].(float64)
	if !ok {
		t.Fatalf("fit span %d: attribute %q missing", s.ID, key)
	}
	return int(v)
}

// TestFitTrajectoryFixture pins every outcome of the attack on each of
// trajectoryCells bit for bit: key, bit origins, queries and rounds in
// total and per procedure, bisection rounds and probes, degraded
// decisions, simulated farm time, and every fit's site, bit count, epoch
// count and exact final loss must match the committed fixture. Run with
// -update to rewrite testdata/fit_trajectory.json.
func TestFitTrajectoryFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("trains eight victims")
	}
	var got []cellTrajectory
	for _, tc := range trajectoryCells() {
		got = append(got, runTrajectory(t, tc.name, tc.input(t)))
	}
	path := filepath.Join("testdata", "fit_trajectory.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want []cellTrajectory
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, fixture has %d", len(got), len(want))
	}
	for i := range want {
		// Encoded JSON is exact: Go writes the shortest float64 text that
		// reads back to the same bits.
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s:\n got %s\nwant %s", want[i].Cell, g, w)
		}
	}
}
