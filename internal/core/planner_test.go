package core

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/models"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// plannerFixture locks the same model the same way every call, so two runs
// with different planner settings attack bit-identical instances.
func plannerFixture(t *testing.T) (*Result, func(cfg Config) *Result) {
	t.Helper()
	run := func(cfg Config) *Result {
		rng := rand.New(rand.NewSource(10))
		white, spec, orc, key := lockAndOracle(models.TinyMLP(rng), hpnn.Config{
			Scheme: hpnn.Negation, KeyBits: 10, Rng: rng,
		})
		cfg.Seed = 11
		res, err := Run(white, spec, orc, cfg)
		if err != nil {
			t.Fatalf("Run failed: %v", err)
		}
		if fid := res.Key.Fidelity(key); fid != 1 {
			t.Fatalf("fidelity %.3f", fid)
		}
		return res
	}
	return run(DefaultConfig()), run
}

// TestPlannerEquivalence pins the tentpole contract: the planner (on by
// default) recovers exactly the key the pre-planner scalar path recovers,
// with exactly the same query count — only the round count drops. The
// scalar path is preserved behind Config.DisablePlanner for this test.
func TestPlannerEquivalence(t *testing.T) {
	planned, run := plannerFixture(t)
	legacy := run(Config{DisablePlanner: true})

	if len(planned.Key) != len(legacy.Key) {
		t.Fatalf("key lengths differ: %d vs %d", len(planned.Key), len(legacy.Key))
	}
	for i := range planned.Key {
		if planned.Key[i] != legacy.Key[i] {
			t.Fatalf("bit %d differs between planner and scalar paths", i)
		}
	}
	if planned.Queries != legacy.Queries {
		t.Fatalf("planner changed the query count: %d vs %d (batching must be free)",
			planned.Queries, legacy.Queries)
	}
	if planned.Rounds <= 0 || legacy.Rounds <= 0 {
		t.Fatalf("rounds not recorded: planned %d, legacy %d", planned.Rounds, legacy.Rounds)
	}
	if planned.Rounds*2 > legacy.Rounds {
		t.Fatalf("planner rounds %d not well below scalar rounds %d", planned.Rounds, legacy.Rounds)
	}
	// Inference probes each key bit with a {x0, x0+dv, x0-dv} triple, so the
	// planner collapses its rounds exactly 3x against the scalar path.
	kb := metrics.ProcKeyBitInference
	if on, off := planned.RoundsByProc[kb], legacy.RoundsByProc[kb]; off > 0 && on*3 > off {
		t.Fatalf("inference rounds %d vs %d: want >= 3x reduction", on, off)
	}
	// Validation sends all its votes' 6-row groups as one batch but keeps
	// scalar spot checks (direct comparison), so its reduction is shallower
	// but must still be visible.
	v := metrics.ProcKeyVectorValidation
	if on, off := planned.RoundsByProc[v], legacy.RoundsByProc[v]; off > 0 && on >= off {
		t.Fatalf("validation rounds %d vs %d: no reduction", on, off)
	}
	// The scalar path issues every probe as its own round; its validation
	// rounds must equal its validation queries — the pre-planner baseline.
	if legacy.RoundsByProc[v] != legacy.QueriesByProc[v] {
		t.Fatalf("scalar validation rounds %d != queries %d",
			legacy.RoundsByProc[v], legacy.QueriesByProc[v])
	}
}

// TestPlannerMultisectFidelity: k-way multisection changes which witnesses
// the white-box search lands on, but never the recovered key.
func TestPlannerMultisectFidelity(t *testing.T) {
	planned, run := plannerFixture(t)
	multi := run(Config{Multisect: 4})
	if multi.BisectRounds <= 0 || multi.BisectProbes <= 0 {
		t.Fatalf("multisect stats not recorded: rounds %d probes %d",
			multi.BisectRounds, multi.BisectProbes)
	}
	if planned.BisectRounds <= 0 {
		t.Fatal("bisection stats not recorded on the default path")
	}
	// The trade-off's direction: fewer narrowing rounds, more probes per
	// round. Witness sets differ, so compare per-round averages.
	perRoundM := float64(multi.BisectProbes) / float64(multi.BisectRounds)
	perRoundB := float64(planned.BisectProbes) / float64(planned.BisectRounds)
	if perRoundM <= perRoundB {
		t.Fatalf("multisect probes/round %.2f not above bisection's %.2f", perRoundM, perRoundB)
	}
}

// TestMultisectSegmentMatchesBisectionQuality: on the same bracket, 4-way
// multisection reaches a witness of the same tolerance in fewer rounds at
// more probes.
func TestMultisectSegmentMatchesBisectionQuality(t *testing.T) {
	u := func(x []float64) float64 { return math.Tanh(3*x[0] - 1.234567) }
	runSearch := func(cfg Config) ([]float64, *critStats) {
		s := &critStats{}
		cfg.critStats = s
		rng := rand.New(rand.NewSource(7))
		x, ok := searchZero(u, 3, cfg, rng)
		if !ok {
			t.Fatal("searchZero failed")
		}
		return x, s
	}
	xb, sb := runSearch(DefaultConfig())
	cfgM := DefaultConfig()
	cfgM.Multisect = 4
	xm, sm := runSearch(cfgM)
	for _, x := range [][]float64{xb, xm} {
		if got := math.Abs(u(x)); got > math.Sqrt(DefaultConfig().CriticalTol) {
			t.Fatalf("witness residual %g", got)
		}
	}
	if sm.rounds.Load() >= sb.rounds.Load() {
		t.Fatalf("multisect rounds %d not below bisection rounds %d",
			sm.rounds.Load(), sb.rounds.Load())
	}
	if sm.probes.Load() <= sb.probes.Load() {
		t.Fatalf("multisect probes %d not above bisection probes %d (the trade-off's cost side)",
			sm.probes.Load(), sb.probes.Load())
	}
}

// newPlannerAttack builds an Attack against a tiny locked model for probe
// path unit tests.
func newPlannerAttack(t *testing.T, cfg Config) (*Attack, *oracle.Oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	white, spec, orc, _ := lockAndOracle(models.TinyMLP(rng), hpnn.Config{
		Scheme: hpnn.Negation, KeyBits: 6, Rng: rng,
	})
	return New(white, spec, orc, cfg), orc
}

// TestProbeCacheDedups: with -probe-cache, repeat points are served from the
// memo (no query, no round) and duplicate rows within one probe group are
// fetched once.
func TestProbeCacheDedups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeCache = true
	a, orc := newPlannerAttack(t, cfg)

	x := make([]float64, a.white.InSize())
	fillRandomPoint(x, 1, rand.New(rand.NewSource(3)))
	y1, err := a.query(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := a.query(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	if orc.Queries() != 1 || orc.Rounds() != 1 {
		t.Fatalf("repeat point consumed queries=%d rounds=%d, want 1/1", orc.Queries(), orc.Rounds())
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("cached response differs from the oracle's")
		}
	}

	// A probe group with an internal duplicate and one cached row: only the
	// two fresh distinct points reach the oracle, in one round.
	fresh := make([]float64, len(x))
	fillRandomPoint(fresh, 1, rand.New(rand.NewSource(4)))
	other := make([]float64, len(x))
	fillRandomPoint(other, 1, rand.New(rand.NewSource(5)))
	xb := tensor.GetMatrix(4, len(x))
	xb.SetRow(0, fresh)
	xb.SetRow(1, x)     // cached
	xb.SetRow(2, fresh) // duplicate of row 0
	xb.SetRow(3, other)
	yb, err := a.multi(nil, xb)
	tensor.PutMatrix(xb)
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.PutMatrix(yb)
	if orc.Queries() != 3 || orc.Rounds() != 2 {
		t.Fatalf("deduped group consumed queries=%d rounds=%d, want 3/2", orc.Queries(), orc.Rounds())
	}
	for c := 0; c < yb.Cols; c++ {
		if yb.At(0, c) != yb.At(2, c) {
			t.Fatal("duplicate rows answered differently")
		}
		if yb.At(1, c) != y1[c] {
			t.Fatal("cached row answered differently from the original query")
		}
	}
}
