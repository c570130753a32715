package harness

// The farm sweep prices the §2.3 oracle channel: it reruns the decryption
// attack against a simulated device fleet (internal/farm) across a grid of
// RTT × bandwidth × loss × fleet mix and reports the predicted attack
// wall-clock on that channel — the virtual-clock horizon — next to the CPU
// seconds the attack itself consumed. The degradations inside the built-in
// mixes stay within the regime the robustness sweep (§11) absorbs at full
// fidelity, so a fidelity below 1.0 here flags a channel problem (loss
// defeating the retry budget), not a fault-tolerance gap.

import (
	"fmt"
	"io"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/farm"
	"dnnlock/internal/oracle"
)

// FarmSweep is the grid of channel conditions a farm run covers. Every
// combination of RTT × bandwidth × loss × mix becomes one row.
type FarmSweep struct {
	// Devices is the simulated fleet size per sweep point.
	Devices int
	// RTTs are the base round-trip times to sweep.
	RTTs []time.Duration
	// Bandwidths are the serialization rates to sweep, in bytes/second;
	// a non-positive entry means unconstrained.
	Bandwidths []float64
	// Losses are the per-round channel loss probabilities to sweep.
	Losses []float64
	// MixNames select fleet compositions from farm.Mixes().
	MixNames []string
}

// DefaultFarmSweep is the grid `dnnlock farm` runs when no flags narrow it:
// LAN-to-WAN RTTs, an unconstrained and a constrained link, a lossless and
// a lossy channel, over the clean and mixed fleets.
func DefaultFarmSweep() FarmSweep {
	return FarmSweep{
		Devices: 1000,
		RTTs:    []time.Duration{time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond},
		Bandwidths: []float64{
			0,       // unconstrained
			1.25e6,  // 10 Mbit/s
			1.25e05, // 1 Mbit/s
		},
		Losses:   []float64{0, 0.01},
		MixNames: []string{"clean", "mixed"},
	}
}

// FarmRow is one sweep point: the channel condition and the attack's
// predicted cost over it.
type FarmRow struct {
	Model   string
	KeyBits int
	Mix     string
	Devices int
	RTT     time.Duration
	// Bandwidth is the swept base serialization rate in bytes/second
	// (0 = unconstrained).
	Bandwidth float64
	Loss      float64
	Fidelity  float64
	Queries   int64
	// Rounds counts every dispatched round-trip, including channel-lost
	// ones; Lost is the lost subset.
	Rounds int64
	Lost   int64
	// Degraded counts attack decisions that fell through to the learning
	// fallback because faults defeated the algebraic probes.
	Degraded int
	// SimSeconds is the predicted attack wall-clock on the simulated
	// channel — the farm's virtual-clock horizon after the attack.
	SimSeconds float64
	// CPUSeconds is the real compute time of the attack itself.
	CPUSeconds float64
	Err        error
}

// RunFarm sweeps the decryption attack across the channel grid for one
// (model, keyBits) cell: the model is trained once, then each sweep point
// gets a freshly provisioned base oracle behind a freshly built fleet and
// transport, so counters and virtual clocks are independent. Rows stream to
// w as they complete.
func RunFarm(sc Scale, model string, keyBits int, sw FarmSweep, w io.Writer) ([]FarmRow, error) {
	if sw.Devices <= 0 {
		sw.Devices = 1000
	}
	var mixes []farm.Mix
	for _, name := range sw.MixNames {
		m, err := farm.MixByName(name)
		if err != nil {
			return nil, err
		}
		mixes = append(mixes, m)
	}
	if len(mixes) == 0 {
		mixes = []farm.Mix{{Name: "clean", Classes: []farm.Class{{Name: "clean", Weight: 1}}}}
	}
	if len(sw.RTTs) == 0 {
		sw.RTTs = []time.Duration{20 * time.Millisecond}
	}
	if len(sw.Bandwidths) == 0 {
		sw.Bandwidths = []float64{0}
	}
	if len(sw.Losses) == 0 {
		sw.Losses = []float64{0}
	}
	p, err := prepare(model, keyBits, sc, w)
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintln(w, FarmHeader())
	}
	var rows []FarmRow
	for _, mix := range mixes {
		for _, rtt := range sw.RTTs {
			for _, bw := range sw.Bandwidths {
				for _, loss := range sw.Losses {
					ch := farm.Channel{RTT: rtt, Bandwidth: bw, Loss: loss}
					rows = append(rows, p.runFarmCell(mix, sw.Devices, ch, w))
				}
			}
		}
	}
	return rows, nil
}

// runFarmCell runs the decryption attack once over a simulated fleet under
// one channel condition.
func (p *pipeline) runFarmCell(mix farm.Mix, devices int, ch farm.Channel, w io.Writer) FarmRow {
	row := FarmRow{
		Model:     p.model,
		KeyBits:   p.bits,
		Mix:       mix.Name,
		Devices:   devices,
		RTT:       ch.RTT,
		Bandwidth: ch.Bandwidth,
		Loss:      ch.Loss,
	}
	base := oracle.New(p.lm, p.key)
	fleet := farm.BuildFleet(base, mix, devices, ch, p.sc.Seed+5)
	tr := farm.NewTransport(base, fleet, farm.Config{
		Seed: p.sc.Seed + 5,
		// One float64 per element each way; Classes outputs per query row.
		RowBytesIn:  8 * p.test.InputSize(),
		RowBytesOut: 8 * p.test.Classes,
	})
	cfg := p.sc.AttackCfg
	cfg.Seed = p.sc.Seed + 2 // same seed as the Table 1 decryption cell
	// One attack worker sends the rounds in one order, so the simulated
	// wall-clock is one number: with parallel workers the transport issues
	// each round at whichever causal frontier reaches it first, and the
	// horizon depends on goroutine scheduling.
	cfg.Workers = 1
	// Declare the worst degradation any device in the mix applies, exactly
	// as the robustness sweep declares its per-cell fault (DESIGN.md §11).
	if step := mix.MaxQuantStep(); step > 0 {
		cfg.QuantStep = step
	}
	if sigma := mix.MaxSigma(); sigma > 0 {
		cfg.NoiseSigma = sigma
		cfg.ProbeVotes = 3
	}
	start := time.Now()
	res, err := core.Run(p.lm.WhiteBox(), p.lm.Spec, tr, cfg)
	row.CPUSeconds = time.Since(start).Seconds()
	row.SimSeconds = tr.SimElapsed().Seconds()
	row.Lost = tr.Lost()
	row.Err = err
	if res != nil {
		row.Fidelity = res.Key.Fidelity(p.key)
		row.Queries = res.Queries
		row.Rounds = res.Rounds
		row.Degraded = res.Degraded
	}
	if w != nil {
		fmt.Fprintf(w, "%s\n", FormatFarmRow(row))
	}
	return row
}

// mbps renders a bytes/second bandwidth in megabits/second for reporting;
// 0 stays 0 (unconstrained).
func mbps(bw float64) float64 {
	if bw <= 0 {
		return 0
	}
	return bw * 8 / 1e6
}

// FarmHeader renders the farm table's column header.
func FarmHeader() string {
	return fmt.Sprintf("%-13s %5s | %-7s %6s %8s %7s %6s | %8s %9s %9s %6s %5s | %10s %9s",
		"DNN", "key", "mix", "dev", "rtt", "mbps", "loss",
		"fid", "query", "round", "lost", "degr", "sim", "cpu")
}

// FormatFarmRow renders one farm sweep row.
func FormatFarmRow(r FarmRow) string {
	s := fmt.Sprintf("%-13s %5d | %-7s %6d %8s %7.2f %6.3f | %7.1f%% %9d %9d %6d %5d | %9.2fs %8.2fs",
		r.Model, r.KeyBits, r.Mix, r.Devices, r.RTT, mbps(r.Bandwidth), r.Loss,
		100*r.Fidelity, r.Queries, r.Rounds, r.Lost, r.Degraded,
		r.SimSeconds, r.CPUSeconds)
	if r.Err != nil {
		s += "  !! " + r.Err.Error()
	}
	return s
}

// WriteFarmCSV emits the sweep as CSV for downstream plotting.
func WriteFarmCSV(rows []FarmRow, w io.Writer) {
	fmt.Fprintln(w, "model,key_bits,mix,devices,rtt_ms,bandwidth_mbps,loss,fid,queries,rounds,lost,degraded,sim_s,cpu_s,error")
	for _, r := range rows {
		errs := ""
		if r.Err != nil {
			errs = r.Err.Error()
		}
		fmt.Fprintf(w, "%s,%d,%s,%d,%g,%g,%g,%.4f,%d,%d,%d,%d,%.3f,%.2f,%q\n",
			r.Model, r.KeyBits, r.Mix, r.Devices,
			float64(r.RTT)/1e6, mbps(r.Bandwidth), r.Loss,
			r.Fidelity, r.Queries, r.Rounds, r.Lost, r.Degraded,
			r.SimSeconds, r.CPUSeconds, errs)
	}
}
