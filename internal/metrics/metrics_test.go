package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBreakdownAddAndPercent(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(ProcKeyBitInference, 300*time.Millisecond, 0, 0, 0)
	b.AddPhase(ProcLearningAttack, 700*time.Millisecond, 0, 0, 0)
	if b.Total() != time.Second {
		t.Fatalf("Total = %v", b.Total())
	}
	if math.Abs(b.Percent(ProcKeyBitInference)-30) > 1e-9 {
		t.Fatalf("Percent = %v", b.Percent(ProcKeyBitInference))
	}
	p := b.Percentages()
	if math.Abs(p[ProcLearningAttack]-70) > 1e-9 || p[ProcErrorCorrection] != 0 {
		t.Fatalf("Percentages = %v", p)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown()
	if b.Percent(ProcKeyBitInference) != 0 || b.Total() != 0 {
		t.Fatal("empty breakdown should be all zero")
	}
}

func TestBreakdownTrack(t *testing.T) {
	b := NewBreakdown()
	b.Track(ProcErrorCorrection, func() { time.Sleep(5 * time.Millisecond) })
	if b.Get(ProcErrorCorrection) < 4*time.Millisecond {
		t.Fatalf("Track recorded %v", b.Get(ProcErrorCorrection))
	}
}

func TestBreakdownConcurrent(t *testing.T) {
	b := NewBreakdown()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.AddPhase(ProcKeyVectorValidation, time.Microsecond, 1, 1, 0)
			}
		}()
	}
	wg.Wait()
	if b.Get(ProcKeyVectorValidation) != 1600*time.Microsecond {
		t.Fatalf("concurrent total = %v", b.Get(ProcKeyVectorValidation))
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(ProcKeyBitInference, time.Second, 0, 0, 0)
	b.AddPhase(Procedure("custom"), time.Second, 0, 0, 0)
	s := b.String()
	if !strings.Contains(s, "key_bit_inference") || !strings.Contains(s, "custom") {
		t.Fatalf("String = %q", s)
	}
	// Extras render in the same percent-and-duration form as the standard
	// procedures.
	if !strings.Contains(s, "custom 50.0% (1s)") {
		t.Fatalf("extra procedure missing share or duration: %q", s)
	}
}

func TestPercentagesIncludeExtras(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(ProcKeyBitInference, 250*time.Millisecond, 0, 0, 0)
	b.AddPhase(Procedure("custom"), 750*time.Millisecond, 0, 0, 0)
	p := b.Percentages()
	if math.Abs(p[Procedure("custom")]-75) > 1e-9 {
		t.Fatalf("extra procedure share = %v", p[Procedure("custom")])
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
}

// TestBreakdownQueries pins AddPhase's ledger: queries and rounds add up
// per procedure, every procedure that ran has a query and a round entry
// (zero included), and only phases that spent simulated time enter Sim.
func TestBreakdownQueries(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(ProcKeyBitInference, time.Millisecond, 40, 4, 0)
	b.AddPhase(ProcKeyBitInference, time.Millisecond, 2, 1, 3*time.Millisecond)
	b.AddPhase(ProcLearningAttack, time.Millisecond, 100, 1, 0)
	b.AddPhase(ProcErrorCorrection, time.Millisecond, 0, 0, 0)
	s := b.Snapshot()
	if s.Queries[ProcKeyBitInference] != 42 || s.Rounds[ProcKeyBitInference] != 5 {
		t.Fatalf("key_bit_inference queries/rounds = %d/%d, want 42/5",
			s.Queries[ProcKeyBitInference], s.Rounds[ProcKeyBitInference])
	}
	if s.Queries[ProcLearningAttack] != 100 || len(s.Queries) != 3 || len(s.Rounds) != 3 {
		t.Fatalf("Queries = %v, Rounds = %v", s.Queries, s.Rounds)
	}
	if len(s.Sim) != 1 || s.Sim[ProcKeyBitInference] != 3*time.Millisecond {
		t.Fatalf("Sim = %v, want only key_bit_inference at 3ms", s.Sim)
	}
	if s.Total != 4*time.Millisecond {
		t.Fatalf("Total = %v", s.Total)
	}
}

// TestSnapshotProceduresDeterministic pins the render order: the four
// Figure 3 procedures first, then extras sorted by name — including extras
// whose phases took no measurable time.
func TestSnapshotProceduresDeterministic(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(Procedure("zeta"), time.Millisecond, 0, 0, 0)
	b.AddPhase(Procedure("alpha"), time.Millisecond, 0, 0, 0)
	b.AddPhase(Procedure("mid"), 0, 7, 1, 0)
	b.AddPhase(ProcErrorCorrection, time.Millisecond, 0, 0, 0)
	got := b.Snapshot().Procedures()
	want := append(append([]Procedure{}, AllProcedures...), "alpha", "mid", "zeta")
	if len(got) != len(want) {
		t.Fatalf("Procedures = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Procedures[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestStringConsistentUnderConcurrentAdds hammers String and Snapshot while
// writers accumulate times and queries — the harness-progress-print race
// the single-lock snapshot closes. Run under -race this also checks the
// memory model, not just the arithmetic.
func TestStringConsistentUnderConcurrentAdds(t *testing.T) {
	b := NewBreakdown()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := AllProcedures[i%len(AllProcedures)]
			for {
				select {
				case <-done:
					return
				default:
					b.AddPhase(proc, time.Microsecond, 3, 1, 0)
				}
			}
		}(i)
	}
	for i := 0; i < 500; i++ {
		if s := b.String(); !strings.Contains(s, "key_bit_inference") {
			t.Errorf("String = %q", s)
			break
		}
		snap := b.Snapshot()
		var sum time.Duration
		for _, d := range snap.Times {
			sum += d
		}
		if sum != snap.Total {
			t.Errorf("snapshot torn: times sum %v, total %v", sum, snap.Total)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestPercentConsistentUnderConcurrentAdds pins the single-snapshot fix: a
// share read while other goroutines accumulate must never exceed 100, and a
// Percentages map must always sum to 100 (or be all zero). The old
// implementation read the total and the procedure's time under separate lock
// acquisitions, so an Add landing between the two reads could push a share
// past 100.
func TestPercentConsistentUnderConcurrentAdds(t *testing.T) {
	b := NewBreakdown()
	b.AddPhase(ProcKeyBitInference, time.Microsecond, 0, 0, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := AllProcedures[i%len(AllProcedures)]
			for {
				select {
				case <-done:
					return
				default:
					b.AddPhase(proc, time.Microsecond, 0, 0, 0)
				}
			}
		}(i)
	}
	for i := 0; i < 2000; i++ {
		if pct := b.Percent(ProcKeyBitInference); pct > 100+1e-9 {
			t.Errorf("Percent = %v > 100", pct)
			break
		}
		p := b.Percentages()
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("shares sum to %v, want 100", sum)
			break
		}
	}
	close(done)
	wg.Wait()
}
