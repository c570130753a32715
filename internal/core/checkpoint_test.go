package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/oracle"
)

// checkpointFixture builds a multi-site Negation-locked MLP and the attack
// inputs.
func checkpointFixture(t testing.TB, bits int) (fresh func() (*nn.Network, hpnn.LockSpec, *oracle.Oracle), key hpnn.Key) {
	t.Helper()
	return lockFixture(t, 7, hpnn.Config{Scheme: hpnn.Negation, KeyBits: bits})
}

// lockFixture locks a TinyMLP drawn from rng seed seed under lc (its Rng
// is set here) and returns the attack inputs. fresh returns an independent
// white-box clone so resumed runs start from the adversary's pristine
// download, exactly as dnnlockd would after a restart.
func lockFixture(t testing.TB, seed int64, lc hpnn.Config) (fresh func() (*nn.Network, hpnn.LockSpec, *oracle.Oracle), key hpnn.Key) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := models.TinyMLP(rng)
	lc.Rng = rng
	lm, k := hpnn.Lock(net, lc)
	if len(lm.Spec.SiteBits()) < 2 {
		t.Fatalf("fixture has %d sites, need >= 2 for boundary coverage", len(lm.Spec.SiteBits()))
	}
	return func() (*nn.Network, hpnn.LockSpec, *oracle.Oracle) {
		return lm.WhiteBox(), lm.Spec, oracle.New(lm, k)
	}, k
}

// TestCheckpointResumeBitIdentity is the property test pinning the daemon's
// suspend/resume contract: a run checkpointed at EVERY site boundary,
// serialized through the JSON wire format, and resumed against a fresh
// white box and a fresh clean oracle must be bit-identical — same key, same
// dec_queries, same rounds, same per-site reports — to the uninterrupted
// run, and its Breakdown must cover the whole run, not just the resumed
// segment.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	fresh, key := checkpointFixture(t, 10)
	resumeEveryBoundary(t, fresh, key)
}

// TestCheckpointResumeVariants holds the §3.9 locks to the same contract:
// they run through the same site loop, so each offers one checkpoint per
// site and resumes from every boundary bit-identically.
func TestCheckpointResumeVariants(t *testing.T) {
	for _, v := range []struct {
		scheme hpnn.Scheme
		alpha  float64
	}{{hpnn.Scaling, 0.5}, {hpnn.BiasShift, 0.8}, {hpnn.WeightPerturb, 1.1}} {
		t.Run(v.scheme.String(), func(t *testing.T) {
			fresh, key := lockFixture(t, 42, hpnn.Config{Scheme: v.scheme, Alpha: v.alpha, KeyBits: 8})
			ref := resumeEveryBoundary(t, fresh, key)
			t.Logf("%d queries, %d rounds", ref.Queries, ref.Rounds)
		})
	}
}

// resumeEveryBoundary runs the attack on fresh's inputs uninterrupted, then
// hooked to capture a checkpoint at every site boundary, and resumes each
// checkpoint through the JSON wire format against a fresh white box and a
// fresh clean oracle. The hooked run and every resumed run must match the
// uninterrupted one, which must recover key; it is returned.
func resumeEveryBoundary(t *testing.T, fresh func() (*nn.Network, hpnn.LockSpec, *oracle.Oracle), key hpnn.Key) *Result {
	t.Helper()
	// Reference: uninterrupted run (no hook at all).
	white, spec, orc := fresh()
	ref, err := Run(white, spec, orc, DefaultConfig())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Key.HammingDistance(key) != 0 {
		t.Fatalf("reference run recovered wrong key")
	}

	// Capture a checkpoint at every site boundary of one observed run, and
	// verify the hook leaves the run itself bit-identical.
	var boundaries [][]byte
	white, spec, orc = fresh()
	cfg := DefaultConfig()
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		raw, err := ck.Marshal()
		if err != nil {
			t.Fatalf("marshal checkpoint: %v", err)
		}
		boundaries = append(boundaries, raw)
		return true
	}
	observed, err := Run(white, spec, orc, cfg)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	assertSameRun(t, "observed(hooked) vs reference", observed, ref)
	nSites := len(spec.SiteBits())
	if len(boundaries) != nSites {
		t.Fatalf("got %d checkpoints, want one per site (%d)", len(boundaries), nSites)
	}

	// Resume from every boundary (the last one has only the final check
	// left) and require the stitched-together totals to match the
	// uninterrupted run exactly.
	for i, raw := range boundaries {
		ck, err := UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatalf("boundary %d: unmarshal: %v", i, err)
		}
		if ck.SitesDone != i+1 {
			t.Fatalf("boundary %d: sites_done %d, want %d", i, ck.SitesDone, i+1)
		}
		rwhite, rspec, rorc := fresh()
		// A fresh oracle's counters start at zero; the resumed segment's
		// deltas stack on the checkpointed totals. The clean oracle is
		// stateless, so its answers do not depend on the replayed history.
		res, err := Resume(rwhite, rspec, rorc, DefaultConfig(), ck)
		if err != nil {
			t.Fatalf("boundary %d: resume: %v", i, err)
		}
		assertSameRun(t, "resumed from boundary", res, ref)
		for _, p := range metrics.AllProcedures {
			if got, prior := res.Breakdown.Get(p), ck.ProcNS[p]; got < prior {
				t.Fatalf("boundary %d: resumed Breakdown has %s at %v, less than the %v already checkpointed",
					i, p, got, prior)
			}
		}
	}
	return ref
}

// TestCheckpointSuspendThenResume exercises the true daemon path: the hook
// suspends the run mid-attack, Run returns ErrSuspended, and Resume against
// the same live oracle finishes with totals identical to an uninterrupted
// run.
func TestCheckpointSuspendThenResume(t *testing.T) {
	fresh, _ := checkpointFixture(t, 10)

	white, spec, orc := fresh()
	ref, err := Run(white, spec, orc, DefaultConfig())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	white, spec, orc = fresh()
	var suspended *Checkpoint
	cfg := DefaultConfig()
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		suspended = ck
		return false // stop at the first boundary
	}
	res, err := Run(white, spec, orc, cfg)
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended run: got (%v, %v), want ErrSuspended", res, err)
	}
	if suspended == nil {
		t.Fatal("hook never received a checkpoint")
	}

	// Resume with the SAME oracle instance (dnnlockd's in-process resume):
	// the oracle's counters already hold the first segment's queries, and the
	// checkpoint carries the same totals, so Resume's delta accounting must
	// not double count.
	resumed, err := Resume(white, spec, orc, cfg2OneShot(t), suspended)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameRun(t, "suspend+resume", resumed, ref)
}

// cfg2OneShot returns a config whose hook always continues, proving a
// resumed run keeps offering checkpoints.
func cfg2OneShot(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	seen := 0
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		seen++
		if ck.Version != CheckpointVersion {
			t.Errorf("resumed checkpoint version %d", ck.Version)
		}
		return true
	}
	return cfg
}

// assertSameRun compares the observable attack outcome fields the daemon's
// dec_queries parity smoke keys on.
func assertSameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Key.HammingDistance(want.Key) != 0 {
		t.Fatalf("%s: keys differ:\n got %v\nwant %v", label, got.Key, want.Key)
	}
	if got.Queries != want.Queries {
		t.Fatalf("%s: queries %d, want %d", label, got.Queries, want.Queries)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if !got.Equivalent {
		t.Fatalf("%s: not equivalent", label)
	}
	if !reflect.DeepEqual(got.Sites, want.Sites) {
		t.Fatalf("%s: site reports differ:\n got %+v\nwant %+v", label, got.Sites, want.Sites)
	}
	if !reflect.DeepEqual(got.Origins, want.Origins) {
		t.Fatalf("%s: bit origins differ:\n got %v\nwant %v", label, got.Origins, want.Origins)
	}
	if !reflect.DeepEqual(got.QueriesByProc, want.QueriesByProc) {
		t.Fatalf("%s: per-proc queries differ:\n got %v\nwant %v", label, got.QueriesByProc, want.QueriesByProc)
	}
	if !reflect.DeepEqual(got.RoundsByProc, want.RoundsByProc) {
		t.Fatalf("%s: per-proc rounds differ:\n got %v\nwant %v", label, got.RoundsByProc, want.RoundsByProc)
	}
}

// TestCheckpointValidation pins the guard rails: version drift, spec drift,
// seed drift, out-of-range pending bits and sites, negative totals and
// per-procedure maps that name an unknown procedure or hold a negative
// value are all rejected before any oracle traffic happens.
func TestCheckpointValidation(t *testing.T) {
	fresh, _ := checkpointFixture(t, 8)
	white, spec, orc := fresh()
	var ck *Checkpoint
	cfg := DefaultConfig()
	cfg.OnCheckpoint = func(c *Checkpoint) bool { ck = c; return false }
	if _, err := Run(white, spec, orc, cfg); !errors.Is(err, ErrSuspended) {
		t.Fatalf("want ErrSuspended, got %v", err)
	}

	t.Run("version", func(t *testing.T) {
		raw, _ := ck.Marshal()
		bad, err := UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		bad.Version = CheckpointVersion + 1
		rewire, _ := bad.Marshal()
		if _, err := UnmarshalCheckpoint(rewire); err == nil {
			t.Fatal("version drift not rejected at decode")
		}
		if _, err := Resume(white, spec, orc, DefaultConfig(), bad); err == nil {
			t.Fatal("version drift not rejected at resume")
		}
	})
	t.Run("spec", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		otherLM, otherKey := hpnn.Lock(models.TinyMLP(rng), hpnn.Config{Scheme: hpnn.Negation, KeyBits: 8, Rng: rng})
		if _, err := Resume(otherLM.WhiteBox(), otherLM.Spec, oracle.New(otherLM, otherKey), DefaultConfig(), ck); err == nil {
			t.Fatal("spec drift not rejected")
		}
	})
	t.Run("seed", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Seed = ck.Seed + 1
		if _, err := Resume(white, spec, orc, cfg, ck); err == nil {
			t.Fatal("seed drift not rejected")
		}
	})
	// corrupt returns a deep copy of ck with mutate applied.
	corrupt := func(t *testing.T, mutate func(*Checkpoint)) *Checkpoint {
		raw, _ := ck.Marshal()
		bad, err := UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		mutate(bad)
		return bad
	}
	t.Run("pending_bits", func(t *testing.T) {
		for _, b := range []int{999, -1} {
			// Wrong decided bits with zero confidence make the resumed group
			// fail validation and relearn its pending bits, which is where an
			// unchecked index would panic.
			bad := corrupt(t, func(c *Checkpoint) {
				for i := range c.Decided {
					if c.Decided[i] {
						c.Key[i] = !c.Key[i]
						c.Confidence[i] = 0
					}
				}
				c.PendingBits = []int{b}
			})
			if _, err := Resume(white, spec, orc, DefaultConfig(), bad); err == nil {
				t.Fatalf("pending bit %d not rejected", b)
			}
		}
	})
	t.Run("pending_sites", func(t *testing.T) {
		for _, s := range []int{99, -3} {
			bad := corrupt(t, func(c *Checkpoint) { c.PendingSites = []int{s} })
			if _, err := Resume(white, spec, orc, DefaultConfig(), bad); err == nil {
				t.Fatalf("pending site %d not rejected", s)
			}
		}
	})
	rejects := func(t *testing.T, cases []struct {
		name   string
		mutate func(*Checkpoint)
	}) {
		t.Helper()
		for _, c := range cases {
			if _, err := Resume(white, spec, orc, DefaultConfig(), corrupt(t, c.mutate)); err == nil {
				t.Errorf("%s not rejected", c.name)
			}
		}
	}
	const kbi = metrics.ProcKeyBitInference
	t.Run("negative_totals", func(t *testing.T) {
		rejects(t, []struct {
			name   string
			mutate func(*Checkpoint)
		}{
			{"queries", func(c *Checkpoint) { c.Queries = -1 }},
			{"rounds", func(c *Checkpoint) { c.Rounds = -1 }},
			{"wall_ns", func(c *Checkpoint) { c.WallNS = -1 }},
			{"sim_ns", func(c *Checkpoint) { c.SimNS = -1 }},
			{"degraded", func(c *Checkpoint) { c.Degraded = -1 }},
			{"bisect_rounds", func(c *Checkpoint) { c.BisectRounds = -1 }},
			{"bisect_probes", func(c *Checkpoint) { c.BisectProbes = -1 }},
		})
	})
	t.Run("proc_maps", func(t *testing.T) {
		if _, ran := ck.ProcNS[kbi]; !ran {
			t.Fatalf("fixture checkpoint never ran %s: %v", kbi, ck.ProcNS)
		}
		rejects(t, []struct {
			name   string
			mutate func(*Checkpoint)
		}{
			{"unknown proc_queries key with a negative count", func(c *Checkpoint) {
				c.ProcQueries = map[metrics.Procedure]int64{"bogus": 5, kbi: -1000}
			}},
			{"unknown proc_queries key", func(c *Checkpoint) { c.ProcQueries["bogus"] = 5 }},
			{"unknown proc_ns key", func(c *Checkpoint) { c.ProcNS["bogus"] = 5 }},
			{"unknown proc_rounds key", func(c *Checkpoint) { c.ProcRounds["bogus"] = 5 }},
			{"unknown proc_sim_ns key", func(c *Checkpoint) {
				c.ProcSimNS = map[metrics.Procedure]time.Duration{"bogus": 5}
			}},
			{"negative proc_ns", func(c *Checkpoint) { c.ProcNS[kbi] = -1 }},
			{"negative proc_queries", func(c *Checkpoint) { c.ProcQueries[kbi] = -1 }},
			{"negative proc_rounds", func(c *Checkpoint) { c.ProcRounds[kbi] = -1 }},
			{"negative proc_sim_ns", func(c *Checkpoint) {
				c.ProcSimNS = map[metrics.Procedure]time.Duration{kbi: -1}
			}},
			{"proc_queries for a procedure that never ran", func(c *Checkpoint) { delete(c.ProcNS, kbi) }},
		})
	})
}

// TestCountedSourceSkip pins the RNG fast-forward identity the checkpoint
// format depends on: re-seeding and discarding N raw draws restores the
// exact stream, independent of which rand.Rand methods consumed them.
func TestCountedSourceSkip(t *testing.T) {
	src := newCountedSource(42)
	rng := rand.New(src)
	// Consume through a representative mix of derivations.
	rng.Perm(17)
	rng.Float64()
	rng.Int63n(1000003)
	rng.Shuffle(9, func(i, j int) {})
	mark := src.draws()
	want := []int64{rng.Int63(), rng.Int63(), rng.Int63()}

	replay := newCountedSource(42)
	replay.skip(mark)
	if replay.draws() != mark {
		t.Fatalf("draw count after skip: %d, want %d", replay.draws(), mark)
	}
	rng2 := rand.New(replay)
	for i, w := range want {
		if got := rng2.Int63(); got != w {
			t.Fatalf("draw %d after fast-forward: %d, want %d", i, got, w)
		}
	}
}

// FuzzUnmarshalCheckpoint hardens the checkpoint decoder, the daemon's
// resume input: decoding plus validation against the lock spec must return
// an error or accept, never panic, and an accepted checkpoint must
// re-marshal to bytes that decode to the same checkpoint. The corpus is
// every real checkpoint of a TinyMLP run plus hand mutations of the first.
// Resume itself stays out: it replays rng_draws one draw at a time, so a
// huge count would stall the fuzzer rather than fail.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	fresh, _ := checkpointFixture(f, 10)
	white, spec, orc := fresh()
	cfg := DefaultConfig()
	var real []*Checkpoint
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		real = append(real, ck)
		return true
	}
	if _, err := Run(white, spec, orc, cfg); err != nil {
		f.Fatal(err)
	}
	add := func(ck *Checkpoint) {
		raw, err := ck.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, ck := range real {
		add(ck)
	}
	for _, mutate := range []func(*Checkpoint){
		func(c *Checkpoint) { c.SitesDone = -1 },
		func(c *Checkpoint) { c.SitesDone = 1 << 20 },
		func(c *Checkpoint) { c.Decided = c.Decided[:1] },
		func(c *Checkpoint) { c.Key = nil },
		func(c *Checkpoint) { c.Confidence = c.Confidence[:len(c.Confidence)-1] },
		func(c *Checkpoint) { c.Origins = c.Origins[1:] },
		func(c *Checkpoint) { c.PendingBits = []int{-1} },
		func(c *Checkpoint) { c.PendingBits = []int{spec.NumBits()} },
		func(c *Checkpoint) { c.PendingSites = []int{-3} },
		func(c *Checkpoint) { c.PendingSites = []int{99} },
		func(c *Checkpoint) {
			c.ProcQueries = map[metrics.Procedure]int64{"bogus": 5, metrics.ProcKeyBitInference: -1000}
		},
	} {
		ck := *real[0]
		mutate(&ck)
		add(&ck)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1,"sites_done":-1,"decided":[true]}`))
	f.Add([]byte(`not json at all`))

	vcfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil || ck.validateFor(spec, vcfg) != nil {
			return
		}
		raw, err := ck.Marshal()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-marshal: %v", err)
		}
		again, err := UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatalf("re-marshalled checkpoint does not decode: %v", err)
		}
		if err := again.validateFor(spec, vcfg); err != nil {
			t.Fatalf("re-marshalled checkpoint no longer validates: %v", err)
		}
		if raw2, err := again.Marshal(); err != nil || !bytes.Equal(raw, raw2) {
			t.Fatalf("checkpoint round trip is not stable: %v\n%s\n%s", err, raw, raw2)
		}
	})
}
