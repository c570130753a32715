// Command dnnlock is the driver for the HPNN logic-locking reproduction:
// it trains and locks models, launches the decryption and monolithic
// attacks against a simulated hardware-root-of-trust oracle, and
// regenerates the paper's Table 1 and Figure 3.
//
// Usage:
//
//	dnnlock lock   -model mlp -bits 32 -out locked.json -keyout key.txt [-epochs 4] [-examples 1500] [-seed 1] [-scheme negation|scaling|bias-shift|weight-perturb -alpha 0.5]
//	dnnlock attack -in locked.json -keyfile key.txt [-monolithic] [-seed 1]
//	dnnlock bench  -exp table1|figure3|all [-scale tiny|quick|paper] [-models mlp,lenet] [-keysizes 16,32] [-csv rows.csv] [-seed 1]
//	dnnlock table1 -model mlp [-scale tiny|quick|paper] [-keysizes 16,32] [-cellworkers n] [-csv rows.csv] [-trace out.jsonl] [-pprof :6060] [-v] [-seed 1]
//	dnnlock trace  -in out.jsonl [-check] [-cover 0.5] [-depth 3]
//	dnnlock robust -model mlp -bits 8 [-scale tiny|quick|paper] [-sigmas 0,1e-4,1e-3] [-qbits 24,16,10] [-csv rows.csv] [-seed 1]
//	dnnlock farm   -model mlp -bits 8 [-scale tiny|quick|paper] [-devices 1000] [-rtts 1ms,20ms,100ms] [-bws 0,10,1] [-loss 0,0.01] [-mixes clean,mixed] [-csv rows.csv] [-seed 1]
//	dnnlock verify -in locked.json -keyfile key.txt -candidate recovered.txt [-samples 64] [-seed 1]
//	dnnlock info   -in locked.json
//
// Observability: -trace exports a JSONL span trace of the whole sweep
// (read it back with `dnnlock trace`), -pprof serves net/http/pprof on a
// private mux, and -v (or DNNLOCK_LOG=debug) turns on structured debug
// logging. `dnnlock trace -check` audits a trace end to end: exported
// summaries must equal a rollup recomputed from the raw spans — queries,
// rounds, per-procedure times, and (for farm traces) the two-way sim_ns
// reconciliation between the transport's channel clock and the span tree.
//
// The long-running service form of this command is dnnlockd (cmd/dnnlockd):
// the same attacks behind an HTTP job API with checkpoint/resume — see
// OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/dataset"
	"dnnlock/internal/harness"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/modelio"
	"dnnlock/internal/models"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/train"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "lock":
		err = cmdLock(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "table1":
		err = cmdTable1(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "robust":
		err = cmdRobust(os.Args[2:])
	case "farm":
		err = cmdFarm(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnnlock:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dnnlock <lock|attack|bench|table1|trace|robust|farm|info|verify> [flags]
  lock    build, HPNN-lock, and train a model; save model + key
  attack  run the DNN decryption attack (or -monolithic) on a saved model
  bench   regenerate the paper's Table 1 / Figure 3
  table1  Table 1 sweep with observability: -trace out.jsonl -pprof :6060 -v
  trace   render a JSONL trace: Figure-3 breakdown table + flame summary
  robust  sweep the decryption attack across noisy/quantized oracles
  farm    price the attack over a simulated device farm: RTT x bandwidth x loss x fleet mix
  info    describe a saved model
  verify  check a candidate key against the device key (fidelity + equivalence)`)
}

func cmdLock(args []string) error {
	fs := flag.NewFlagSet("lock", flag.ExitOnError)
	model := fs.String("model", "mlp", "architecture: mlp, lenet, resnet, vtransformer")
	schemeName := fs.String("scheme", "negation", "locking scheme: negation, scaling, bias-shift, weight-perturb")
	alpha := fs.Float64("alpha", 0.5, "variant parameter (scaling factor or shift delta)")
	bits := fs.Int("bits", 32, "key size in bits")
	epochs := fs.Int("epochs", 4, "training epochs (0 skips training)")
	examples := fs.Int("examples", 1500, "synthetic training examples")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "locked.json", "output model file")
	keyout := fs.String("keyout", "key.txt", "output key file (the device secret)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	builder, c, h, _, err := models.ByName(*model)
	if err != nil {
		return err
	}
	scheme, needAlpha, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	a := 0.0
	if needAlpha {
		a = *alpha
	}
	if scheme == hpnn.WeightPerturb && *model != "mlp" {
		return fmt.Errorf("weight-perturb locking needs dense lockable layers; use -model mlp")
	}
	net := builder(rng)
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: a, KeyBits: *bits, Rng: rng})
	var ds *dataset.Dataset
	if c == 1 && h == 28 {
		ds = dataset.Digits(*examples, *seed+7)
	} else {
		ds = dataset.Shapes(*examples, *seed+7)
	}
	tr, te := ds.Split(0.8)
	if *epochs > 0 {
		fmt.Printf("training %s (%d params) with a %d-bit key...\n", *model, net.NumParams(), *bits)
		res := train.Fit(net, tr.X, tr.Y, te.X, te.Y, train.Config{
			Epochs: *epochs, BatchSize: 32, Optimizer: train.NewAdam(0.003),
			Seed: *seed, Log: os.Stdout,
		})
		fmt.Printf("trained: test accuracy %.3f\n", res.TestAccuracy)
	}
	if err := modelio.SaveNetwork(*out, lm.Net, &lm.Spec); err != nil {
		return err
	}
	if err := os.WriteFile(*keyout, []byte(key.String()+"\n"), 0o600); err != nil {
		return err
	}
	fmt.Printf("locked model -> %s, key (%d bits) -> %s\n", *out, len(key), *keyout)
	return nil
}

func parseScheme(name string) (hpnn.Scheme, bool, error) {
	switch name {
	case "negation":
		return hpnn.Negation, false, nil
	case "scaling":
		return hpnn.Scaling, true, nil
	case "bias-shift":
		return hpnn.BiasShift, true, nil
	case "weight-perturb":
		return hpnn.WeightPerturb, true, nil
	default:
		return 0, false, fmt.Errorf("unknown scheme %q", name)
	}
}

func parseKeyFile(path string, want int) (hpnn.Key, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := strings.TrimSpace(string(raw))
	if len(s) != want {
		return nil, fmt.Errorf("key file has %d bits, spec wants %d", len(s), want)
	}
	key := make(hpnn.Key, want)
	for i, ch := range s {
		switch ch {
		case '0':
		case '1':
			key[i] = true
		default:
			return nil, fmt.Errorf("key file contains %q", ch)
		}
	}
	return key, nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "locked.json", "locked model file")
	keyfile := fs.String("keyfile", "key.txt", "device key file (provisions the simulated oracle)")
	mono := fs.Bool("monolithic", false, "run the monolithic learning attack instead of Algorithm 2")
	seed := fs.Int64("seed", 1, "attack seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, spec, err := modelio.LoadNetwork(*in)
	if err != nil {
		return err
	}
	if spec == nil {
		return fmt.Errorf("%s carries no lock spec", *in)
	}
	key, err := parseKeyFile(*keyfile, spec.NumBits())
	if err != nil {
		return err
	}
	// Provision a fresh device with the key from the key file and bind the
	// model to it; the adversary only ever sees the white box and the
	// device's query interface.
	lm := hpnn.NewLockedModel(net, *spec)
	orc := oracle.New(lm, key)
	white := lm.WhiteBox()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	if *mono {
		rep, err := core.Monolithic(white, *spec, orc, cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("monolithic attack: %d epochs, %d queries, %.2fs\n", rep.Epochs, rep.Queries, rep.Time.Seconds())
		fmt.Printf("recovered key: %s\n", rep.Key)
		fmt.Printf("fidelity vs device key: %.4f\n", rep.Key.Fidelity(key))
		return nil
	}
	res, err := core.Run(white, *spec, orc, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("decryption attack: %d queries, %.2fs\n", res.Queries, res.Time.Seconds())
	fmt.Printf("breakdown: %s\n", res.Breakdown)
	fmt.Printf("recovered key: %s\n", res.Key)
	fmt.Printf("fidelity vs device key: %.4f\n", res.Key.Fidelity(key))
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: table1, figure3, or all")
	scaleName := fs.String("scale", "tiny", "scale: tiny, quick, paper")
	modelsFlag := fs.String("models", "mlp,lenet,resnet,vtransformer", "comma-separated model list")
	keysizes := fs.String("keysizes", "", "override key sizes for all models, e.g. 16,32")
	csvPath := fs.String("csv", "", "also write Table 1 rows to this CSV file")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	if err := applyKeySizes(&sc, *keysizes); err != nil {
		return err
	}
	names := strings.Split(*modelsFlag, ",")
	fmt.Printf("scale=%s models=%v\n", sc.Name, names)
	rows, err := harness.RunTable1(sc, names, os.Stdout)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		harness.WriteCSV(rows, f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *exp == "figure3" || *exp == "all" {
		fmt.Println("\nFigure 3: runtime breakdown of the decryption attack")
		harness.FormatFigure3(harness.RunFigure3(rows), os.Stdout)
	}
	return nil
}

// applyKeySizes overrides every model's key sizes with a comma-separated
// list; an empty list leaves the scale's defaults alone.
func applyKeySizes(sc *harness.Scale, list string) error {
	if list == "" {
		return nil
	}
	var sizes []int
	for _, tok := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -keysizes: %v", err)
		}
		sizes = append(sizes, v)
	}
	for m := range sc.KeySizes {
		sc.KeySizes[m] = sizes
	}
	return nil
}

// cmdTable1 is the observability-first Table 1 driver: the bench sweep
// plus span tracing (-trace), pprof (-pprof), and debug logging (-v).
func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	modelsFlag := fs.String("model", "mlp", "comma-separated model list")
	scaleName := fs.String("scale", "tiny", "scale: tiny, quick, paper")
	keysizes := fs.String("keysizes", "", "override key sizes for all models, e.g. 16,32")
	csvPath := fs.String("csv", "", "also write Table 1 rows to this CSV file")
	tracePath := fs.String("trace", "", "export a JSONL span trace to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address, e.g. :6060")
	verbose := fs.Bool("v", false, "structured debug logging to stderr (same as DNNLOCK_LOG=debug)")
	cellWorkers := fs.Int("cellworkers", 0, "concurrent Table 1 cells (0 = DNNLOCK_PROCS/CPU count, 1 = serial)")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	sc.CellWorkers = *cellWorkers
	if err := applyKeySizes(&sc, *keysizes); err != nil {
		return err
	}
	if *verbose {
		sc.AttackCfg.Logger = obs.NewLogger(os.Stderr, slog.LevelDebug)
	}
	if *pprofAddr != "" {
		stop, err := obs.StartProfiler(*pprofAddr)
		if err != nil {
			return err
		}
		// Shutdown errors on exit are uninteresting; the server dies with us.
		defer stop()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	var tr *obs.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		tr = obs.New(obs.WithSink(traceFile))
		sc.AttackCfg.Tracer = tr
	}
	names := strings.Split(*modelsFlag, ",")
	fmt.Printf("scale=%s models=%v\n", sc.Name, names)
	rows, runErr := harness.RunTable1(sc, names, os.Stdout)
	if tr != nil {
		// The tracer flushes on every span end; Close surfaces the first
		// sink write error of the whole run.
		if err := tr.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("trace export: %w", err)
		}
		if err := traceFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
		fmt.Printf("trace -> %s (render with: dnnlock trace -in %s)\n", *tracePath, *tracePath)
	}
	if runErr != nil {
		return runErr
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		harness.WriteCSV(rows, f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Println("\nFigure 3: runtime breakdown of the decryption attack")
	harness.FormatFigure3(harness.RunFigure3(rows), os.Stdout)
	return nil
}

// cmdTrace reads a JSONL trace produced by `table1 -trace` and renders
// the Figure-3 breakdown of every anchored attack plus a flame-style
// summary of the span tree. -check verifies the exported summaries
// against a rollup recomputed from the raw spans: query and round counts,
// per-procedure wall-time coverage, and — for traces of farm-backed runs —
// the two-way sim_ns reconciliation (every span's simulated channel time
// must roll up to its anchor, and the anchor total must match the
// transport's channel clock).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	in := fs.String("in", "trace.jsonl", "JSONL trace file (from `dnnlock table1 -trace`)")
	check := fs.Bool("check", false, "verify summaries against a span-tree rollup (queries, rounds, proc coverage, and farm sim_ns two-way reconciliation)")
	cover := fs.Float64("cover", 0.5, "with -check: minimum fraction of anchor wall time the procedures must cover")
	depth := fs.Int("depth", 3, "flame summary depth (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	trace, err := obs.ReadTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *check {
		if err := trace.Check(*cover); err != nil {
			return fmt.Errorf("trace check: %w", err)
		}
		fmt.Printf("trace check: ok (%d spans, %d anchors)\n", len(trace.Spans), len(trace.Anchors()))
	}
	trace.BreakdownTable(os.Stdout)
	if *depth > 0 {
		fmt.Println()
		trace.Flame(os.Stdout, *depth)
	}
	return nil
}

func parseScale(name string) (harness.Scale, error) {
	return harness.ScaleByName(name)
}

func cmdRobust(args []string) error {
	fs := flag.NewFlagSet("robust", flag.ExitOnError)
	model := fs.String("model", "mlp", "architecture: mlp, lenet, resnet, vtransformer")
	bits := fs.Int("bits", 8, "key size in bits")
	scaleName := fs.String("scale", "tiny", "scale: tiny, quick, paper")
	sigmaFlag := fs.String("sigmas", "0,1e-5,1e-4,1e-3", "comma-separated oracle noise sigmas (0 = clean)")
	qbitsFlag := fs.String("qbits", "24,16,10", "comma-separated quantization depths in fractional bits (0 = full precision)")
	csvPath := fs.String("csv", "", "also write sweep rows to this CSV file")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	var sigmas []float64
	for _, tok := range strings.Split(*sigmaFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad -sigmas: %v", err)
		}
		sigmas = append(sigmas, v)
	}
	var qbits []int
	for _, tok := range strings.Split(*qbitsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -qbits: %v", err)
		}
		qbits = append(qbits, v)
	}
	fmt.Printf("robustness sweep: scale=%s model=%s bits=%d sigmas=%v qbits=%v\n",
		sc.Name, *model, *bits, sigmas, qbits)
	rows, err := harness.RunRobustness(sc, *model, *bits, sigmas, qbits, os.Stdout)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		harness.WriteRobustnessCSV(rows, f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// cmdFarm sweeps the decryption attack over the simulated device farm
// (internal/farm): each grid point builds a heterogeneous fleet behind an
// event-driven channel simulator and reports the predicted attack
// wall-clock on that channel next to the attack's CPU time.
func cmdFarm(args []string) error {
	fs := flag.NewFlagSet("farm", flag.ExitOnError)
	model := fs.String("model", "mlp", "architecture: mlp, lenet, resnet, vtransformer")
	bits := fs.Int("bits", 8, "key size in bits")
	scaleName := fs.String("scale", "tiny", "scale: tiny, quick, paper")
	devices := fs.Int("devices", 1000, "simulated fleet size per sweep point")
	rttFlag := fs.String("rtts", "1ms,20ms,100ms", "comma-separated base round-trip times (Go durations)")
	bwFlag := fs.String("bws", "0,10,1", "comma-separated bandwidths in Mbit/s (0 = unconstrained)")
	lossFlag := fs.String("loss", "0,0.01", "comma-separated per-round channel loss probabilities")
	mixFlag := fs.String("mixes", "clean,mixed", "comma-separated fleet mixes: clean, edge, mixed")
	csvPath := fs.String("csv", "", "also write sweep rows to this CSV file")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	sw := harness.FarmSweep{Devices: *devices, MixNames: strings.Split(*mixFlag, ",")}
	for _, tok := range strings.Split(*rttFlag, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -rtts: %v", err)
		}
		sw.RTTs = append(sw.RTTs, d)
	}
	for _, tok := range strings.Split(*bwFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad -bws: %v", err)
		}
		// Mbit/s on the flag, bytes/second inside the simulator.
		sw.Bandwidths = append(sw.Bandwidths, v*1e6/8)
	}
	for _, tok := range strings.Split(*lossFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad -loss: %v", err)
		}
		sw.Losses = append(sw.Losses, v)
	}
	fmt.Printf("farm sweep: scale=%s model=%s bits=%d devices=%d rtts=%s bws=%sMbit loss=%s mixes=%s\n",
		sc.Name, *model, *bits, sw.Devices, *rttFlag, *bwFlag, *lossFlag, *mixFlag)
	rows, err := harness.RunFarm(sc, *model, *bits, sw, os.Stdout)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		harness.WriteFarmCSV(rows, f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "locked.json", "locked model file")
	keyfile := fs.String("keyfile", "key.txt", "device key file")
	candidate := fs.String("candidate", "", "candidate key file to verify")
	samples := fs.Int("samples", 64, "random inputs for the functional comparison")
	seed := fs.Int64("seed", 1, "probe seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *candidate == "" {
		return fmt.Errorf("verify needs -candidate")
	}
	net, spec, err := modelio.LoadNetwork(*in)
	if err != nil {
		return err
	}
	if spec == nil {
		return fmt.Errorf("%s carries no lock spec", *in)
	}
	key, err := parseKeyFile(*keyfile, spec.NumBits())
	if err != nil {
		return err
	}
	cand, err := parseKeyFile(*candidate, spec.NumBits())
	if err != nil {
		return err
	}
	lm := hpnn.NewLockedModel(net, *spec)
	ref := lm.Apply(key)
	got := lm.Apply(cand)
	rng := rand.New(rand.NewSource(*seed))
	maxDiff := 0.0
	for i := 0; i < *samples; i++ {
		x := make([]float64, net.InSize())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		yr := ref.Forward(x)
		yg := got.Forward(x)
		for j := range yr {
			d := yr[j] - yg[j]
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("fidelity: %.4f (hamming distance %d)\n", cand.Fidelity(key), cand.HammingDistance(key))
	fmt.Printf("max output difference over %d probes: %.3e\n", *samples, maxDiff)
	if maxDiff < 1e-9 {
		fmt.Println("functionally equivalent")
	} else {
		fmt.Println("NOT functionally equivalent")
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "locked.json", "model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, spec, err := modelio.LoadNetwork(*in)
	if err != nil {
		return err
	}
	fmt.Printf("input %d -> output %d, %d parameters, %d lockable sites\n",
		net.InSize(), net.OutSize(), net.NumParams(), net.NumFlipSites())
	for i, l := range net.Layers {
		fmt.Printf("  layer %2d: %-16s %6d -> %d\n", i, l.Name(), l.InSize(), l.OutSize())
	}
	if spec != nil {
		fmt.Printf("lock: scheme=%s alpha=%g bits=%d\n", spec.Scheme, spec.Alpha, spec.NumBits())
		bySite := spec.SiteBits()
		for site, idxs := range bySite {
			fmt.Printf("  site %d: %d protected neurons\n", site, len(idxs))
		}
	}
	return nil
}
