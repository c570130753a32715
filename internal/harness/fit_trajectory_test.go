package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dnnlock/internal/core"
	"dnnlock/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata fixtures from the current code")

// fitRecord is one §3.6 learning-attack fit as its "fit" span records it.
type fitRecord struct {
	Site   int     `json:"site"`
	Bits   int     `json:"bits"`
	Epochs int     `json:"epochs"`
	Loss   float64 `json:"loss"`
}

// cellTrajectory is one attack's pinned outcome: the recovered key, its
// query count, and every fit in the order the attack ran them. Rounds are
// left out: they still depend on goroutine scheduling on more than one CPU.
type cellTrajectory struct {
	Cell       string      `json:"cell"`
	Key        string      `json:"key"`
	DecQueries int64       `json:"dec_queries"`
	Fits       []fitRecord `json:"fits"`
}

// trajectoryCells are the learning-heavy victims: LeNet-6 seeds 1–3,
// ResNet-4 and ViT-4 at the tiny scale.
var trajectoryCells = []struct {
	model string
	bits  int
	seed  int64
}{
	{"lenet", 6, 1}, {"lenet", 6, 2}, {"lenet", 6, 3},
	{"resnet", 4, 1}, {"vtransformer", 4, 1},
}

// runTrajectory attacks one cell with a detail-tracing tracer and one
// worker, and reads its fit spans back from the exported trace.
func runTrajectory(t *testing.T, c *Cell) cellTrajectory {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.WithSink(&buf))
	cfg := c.DecryptConfig()
	cfg.Workers = 1
	cfg.Tracer = tr
	res, err := core.Run(c.WhiteBox(), c.Spec(), c.NewOracle(), cfg)
	if err != nil {
		t.Fatalf("%s-%d: %v", c.Model(), c.Bits(), err)
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
	out := cellTrajectory{Key: res.Key.String(), DecQueries: res.Queries, Fits: []fitRecord{}}
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

// TestFitTrajectoryFixture pins the learning attack's float64 fit bit for
// bit: every fit's site, bit count, epoch count and exact final loss, plus
// the recovered key and dec_queries, must match the committed fixture.
// Run with -update to rewrite testdata/fit_trajectory.json.
func TestFitTrajectoryFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five victims")
	}
	var got []cellTrajectory
	for _, tc := range trajectoryCells {
		sc := TinyScale()
		sc.Seed = tc.seed
		c, err := PrepareCell(tc.model, tc.bits, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := runTrajectory(t, c)
		ct.Cell = fmt.Sprintf("%s-%d-seed%d", tc.model, tc.bits, tc.seed)
		got = append(got, ct)
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
		g, w := got[i], want[i]
		if g.Cell != w.Cell || g.Key != w.Key || g.DecQueries != w.DecQueries {
			t.Errorf("%s: key %s dec_queries %d, want %s key %s dec_queries %d",
				g.Cell, g.Key, g.DecQueries, w.Cell, w.Key, w.DecQueries)
		}
		if len(g.Fits) != len(w.Fits) {
			t.Errorf("%s: %d fits, want %d", g.Cell, len(g.Fits), len(w.Fits))
			continue
		}
		for j := range w.Fits {
			if g.Fits[j] != w.Fits[j] {
				t.Errorf("%s fit %d: %+v, want %+v", g.Cell, j, g.Fits[j], w.Fits[j])
			}
		}
	}
}
