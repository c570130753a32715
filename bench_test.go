// Package dnnlock_test holds the benchmark harness that regenerates the
// paper's evaluation artifacts (DESIGN.md §5):
//
//   - BenchmarkTable1* — one benchmark per Table 1 architecture, running
//     the full train → lock → monolithic attack → decryption attack cell
//     at tiny scale and reporting fidelity/queries as benchmark metrics.
//     (The full-size sweep is `go run ./cmd/dnnlock bench -scale quick`.)
//   - BenchmarkFigure3* — the decryption attack with its per-procedure
//     runtime breakdown reported as *_pct metrics.
//   - BenchmarkKeySizeScaling* — Table 1's within-architecture key-size
//     trend (time and queries growing with key bits).
//   - BenchmarkAblation* — the design-choice ablations listed in
//     DESIGN.md §6.
//   - BenchmarkVariant* — the §3.9 locking variants.
//   - micro-benchmarks for the attack's hot procedures.
package dnnlock_test

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/harness"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// benchCell runs one tiny-scale Table 1 cell and reports its metrics.
func benchCell(b *testing.B, model string, bits int) {
	sc := harness.TinyScale()
	sc.KeySizes = map[string][]int{model: {bits}}
	var last harness.Table1Row
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunTable1(sc, []string{model}, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
		if last.DecryptErr != nil {
			b.Fatal(last.DecryptErr)
		}
	}
	b.ReportMetric(100*last.Decryption.Fidelity, "dec_fidelity_%")
	b.ReportMetric(100*last.Monolithic.Fidelity, "mono_fidelity_%")
	b.ReportMetric(float64(last.Decryption.Queries), "dec_queries")
	b.ReportMetric(float64(last.Decryption.Rounds), "oracle_rounds")
	b.ReportMetric(100*last.OriginalAccuracy, "orig_acc_%")
	b.ReportMetric(100*last.BaselineAccuracy, "base_acc_%")
}

func BenchmarkTable1MLP(b *testing.B)          { benchCell(b, "mlp", 8) }
func BenchmarkTable1LeNet(b *testing.B)        { benchCell(b, "lenet", 4) }
func BenchmarkTable1ResNet(b *testing.B)       { benchCell(b, "resnet", 4) }
func BenchmarkTable1VTransformer(b *testing.B) { benchCell(b, "vtransformer", 4) }

// benchFarm prices one farm sweep point per architecture: the tiny-scale
// decryption attack over a 1000-device mixed fleet behind a 20ms / 10Mbit /
// 1%-loss channel, reporting the predicted attack wall-clock on the
// simulated channel as farm_wallclock_s. Workers=1 keeps the attack's round
// ordering serial, so the virtual-clock horizon is exactly reproducible run
// to run and bench_compare can gate it like oracle_rounds.
func benchFarm(b *testing.B, model string, bits int) {
	sc := harness.TinyScale()
	sc.AttackCfg.Workers = 1
	sw := harness.FarmSweep{
		Devices:    1000,
		RTTs:       []time.Duration{20 * time.Millisecond},
		Bandwidths: []float64{1.25e6},
		Losses:     []float64{0.01},
		MixNames:   []string{"mixed"},
	}
	var last harness.FarmRow
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFarm(sc, model, bits, sw, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
		if last.Err != nil {
			b.Fatal(last.Err)
		}
	}
	b.ReportMetric(last.SimSeconds, "farm_wallclock_s")
	b.ReportMetric(100*last.Fidelity, "fid_%")
	b.ReportMetric(float64(last.Rounds), "oracle_rounds")
	b.ReportMetric(float64(last.Lost), "lost_rounds")
}

func BenchmarkFarmMLP(b *testing.B)          { benchFarm(b, "mlp", 8) }
func BenchmarkFarmLeNet(b *testing.B)        { benchFarm(b, "lenet", 4) }
func BenchmarkFarmResNet(b *testing.B)       { benchFarm(b, "resnet", 4) }
func BenchmarkFarmVTransformer(b *testing.B) { benchFarm(b, "vtransformer", 4) }

// attackSetup locks a fresh tiny network of the given kind and returns the
// attack inputs (no training: the attack itself is data-free).
func attackSetup(kind string, bits int, seed int64) (*nn.Network, hpnn.LockSpec, *oracle.Oracle, hpnn.Key) {
	rng := rand.New(rand.NewSource(seed))
	var net *nn.Network
	switch kind {
	case "mlp":
		net = models.TinyMLP(rng)
	case "lenet":
		net = models.TinyLeNet(rng)
	case "resnet":
		net = models.TinyResNet(rng)
	case "vtransformer":
		net = models.TinyVTransformer(rng)
	}
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: bits, Rng: rng})
	return lm.WhiteBox(), lm.Spec, oracle.New(lm, key), key
}

// benchDecrypt measures the decryption attack alone and reports the
// Figure 3 breakdown percentages.
func benchDecrypt(b *testing.B, kind string, bits int, mutate func(*core.Config)) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		white, spec, orc, key := attackSetup(kind, bits, 42)
		cfg := core.DefaultConfig()
		cfg.Seed = 7
		if mutate != nil {
			mutate(&cfg)
		}
		var err error
		res, err = core.Run(white, spec, orc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Key.Fidelity(key) != 1 {
			b.Fatalf("fidelity %.3f", res.Key.Fidelity(key))
		}
	}
	b.ReportMetric(float64(res.Queries), "queries")
	b.ReportMetric(float64(res.Rounds), "oracle_rounds")
	// The §3.5 search runs on the white box: one probe per bisection round,
	// and neither reaches the oracle.
	b.ReportMetric(float64(res.BisectRounds), "bisect_rounds")
	b.ReportMetric(float64(res.BisectProbes), "bisect_probes")
	for _, p := range metrics.AllProcedures {
		b.ReportMetric(res.Breakdown.Percent(p), string(p)+"_pct")
	}
}

// Tracer overhead (DESIGN.md §12): the same decryption cell once with the
// no-op default tracer and once exporting a full detailed trace to
// io.Discard. bench.sh records both, so the observability layer's cost
// stays a tracked, diffable number.
func BenchmarkDecryptTracerOff(b *testing.B) { benchDecrypt(b, "mlp", 8, nil) }
func BenchmarkDecryptTracerOn(b *testing.B) {
	tr := obs.New(obs.WithSink(io.Discard))
	defer tr.Close()
	benchDecrypt(b, "mlp", 8, func(c *core.Config) { c.Tracer = tr })
}

func BenchmarkFigure3MLP(b *testing.B)          { benchDecrypt(b, "mlp", 8, nil) }
func BenchmarkFigure3LeNet(b *testing.B)        { benchDecrypt(b, "lenet", 6, nil) }
func BenchmarkFigure3ResNet(b *testing.B)       { benchDecrypt(b, "resnet", 4, nil) }
func BenchmarkFigure3VTransformer(b *testing.B) { benchDecrypt(b, "vtransformer", 4, nil) }

// Key-size scaling (the within-architecture trend of Table 1).
func BenchmarkKeySizeScalingMLP4(b *testing.B)  { benchDecrypt(b, "mlp", 4, nil) }
func BenchmarkKeySizeScalingMLP8(b *testing.B)  { benchDecrypt(b, "mlp", 8, nil) }
func BenchmarkKeySizeScalingMLP12(b *testing.B) { benchDecrypt(b, "mlp", 12, nil) }

// Ablations (DESIGN.md §6).
func BenchmarkAblationDefault(b *testing.B) { benchDecrypt(b, "mlp", 8, nil) }
func BenchmarkAblationNoAlgebraic(b *testing.B) {
	benchDecrypt(b, "mlp", 8, func(c *core.Config) { c.DisableAlgebraic = true })
}
func BenchmarkAblationJVPOnly(b *testing.B) {
	benchDecrypt(b, "mlp", 8, func(c *core.Config) { c.UseProductMatrix = false })
}
func BenchmarkAblationSerial(b *testing.B) {
	benchDecrypt(b, "mlp", 8, func(c *core.Config) { c.Workers = 1 })
}
func BenchmarkAblationFloat64Training(b *testing.B) {
	// The exact float64 learning fit on the learning-heavy LeNet cell
	// (DESIGN.md §13); the name predates the removal of the float32 tier
	// and keys the benchmark history.
	benchDecrypt(b, "lenet", 6, nil)
}

// §3.9 variant attacks.
func benchVariant(b *testing.B, scheme hpnn.Scheme, alpha float64) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(13))
		net := models.TinyMLP(rng)
		lm, key := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: alpha, KeyBits: 6, Rng: rng})
		orc := oracle.New(lm, key)
		res, err := core.Run(lm.WhiteBox(), lm.Spec, orc, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.Key.Fidelity(key) != 1 {
			b.Fatal("variant fidelity < 1")
		}
	}
}

func BenchmarkVariantScaling(b *testing.B)       { benchVariant(b, hpnn.Scaling, 0.5) }
func BenchmarkVariantBiasShift(b *testing.B)     { benchVariant(b, hpnn.BiasShift, 0.8) }
func BenchmarkVariantWeightPerturb(b *testing.B) { benchVariant(b, hpnn.WeightPerturb, 1.1) }

// Monolithic baseline on its own.
func BenchmarkMonolithicMLP(b *testing.B) {
	var rep *core.MonolithicReport
	var key hpnn.Key
	for i := 0; i < b.N; i++ {
		white, spec, orc, k := attackSetup("mlp", 8, 42)
		key = k
		cfg := core.DefaultConfig()
		cfg.LearnQueries = 256
		cfg.LearnEpochs = 120
		var err error
		rep, err = core.Monolithic(white, spec, orc, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Key.Fidelity(key), "fidelity_%")
	b.ReportMetric(float64(rep.Queries), "queries")
}

// --- micro-benchmarks of the attack's hot procedures -------------------

func BenchmarkOracleQuery(b *testing.B) {
	_, _, orc, _ := attackSetup("mlp", 4, 1)
	x := make([]float64, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orc.Query(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardPaperMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := models.PaperMLP(rng)
	x := make([]float64, 784)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkPreActJacobianLeNet(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := models.TinyLeNet(rng)
	x := make([]float64, net.InSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, j := net.PreActJacobian(x, 1)
		tensor.PutMatrix(j)
	}
}

func BenchmarkLeastSquaresWide(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.New(64, 784)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	e := tensor.Basis(64, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := tensor.LeastSquares(a, e)
		if res.RelRes > 1e-6 {
			b.Fatal("unexpected residual")
		}
	}
}

func BenchmarkTrainEpochTinyMLP(b *testing.B) {
	sc := harness.TinyScale()
	sc.KeySizes = map[string][]int{"mlp": {4}}
	sc.TrainEpochs = 1
	sc.BaselineKeys = 1
	sc.MonoEpochs = 1
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable1(sc, []string{"mlp"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
