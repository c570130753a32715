package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata fixtures from the current code")

// jacobianEntry pins one Jacobian query: the SHA-256 of the float64 bits of
// the returned value followed by the Jacobian's shape and entries.
type jacobianEntry struct {
	Model  string `json:"model"`
	Seed   int64  `json:"seed"`
	Point  int    `json:"point"`
	Kind   string `json:"kind"` // "pre" (flip site), "relu" (ReLU site) or "out"
	Site   int    `json:"site"`
	SHA256 string `json:"sha256"`
}

// hashJacobian digests a value and its Jacobian bit for bit.
func hashJacobian(v []float64, j *tensor.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	word(uint64(len(v)))
	for _, x := range v {
		word(math.Float64bits(x))
	}
	word(uint64(j.Rows))
	word(uint64(j.Cols))
	for _, x := range j.Data {
		word(math.Float64bits(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jacobianEntries evaluates every flip-site, ReLU-site and output Jacobian
// of the four tiny models, each locked with seeds 1–3, at three random
// points per network.
func jacobianEntries() []jacobianEntry {
	builds := []struct {
		name  string
		build func(*rand.Rand) *nn.Network
	}{
		{"mlp", models.TinyMLP},
		{"lenet", models.TinyLeNet},
		{"resnet", models.TinyResNet},
		{"vtransformer", models.TinyVTransformer},
	}
	var out []jacobianEntry
	for _, b := range builds {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			net := b.build(rng)
			hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 8, Rng: rng})
			for point := 0; point < 3; point++ {
				x := make([]float64, net.InSize())
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				add := func(kind string, site int, v []float64, j *tensor.Matrix) {
					out = append(out, jacobianEntry{
						Model: b.name, Seed: seed, Point: point,
						Kind: kind, Site: site, SHA256: hashJacobian(v, j),
					})
				}
				for s := 0; s < net.NumFlipSites(); s++ {
					v, j := net.PreActJacobian(x, s)
					add("pre", s, v, j)
					tensor.PutMatrix(j)
				}
				for r := range net.ReLUs() {
					v, j := net.ReluInJacobian(x, r)
					add("relu", r, v, j)
					tensor.PutMatrix(j)
				}
				v, j := net.OutputJacobian(x)
				add("out", -1, v, j)
				tensor.PutMatrix(j)
			}
		}
	}
	return out
}

// TestJacobianFixture pins every Jacobian the attack's probe geometry can
// ask for — flip-site pre-activations, ReLU inputs and the output, with
// their values — bit for bit against testdata/jacobians.json. Rewrite the
// fixture with `go test ./internal/nn -run TestJacobianFixture -update`
// only when a change is meant to move these numbers.
func TestJacobianFixture(t *testing.T) {
	got := jacobianEntries()
	path := filepath.Join("testdata", "jacobians.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record the fixture with -update)", err)
	}
	var want []jacobianEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d Jacobians, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %s, want %s", i, describe(got[i]), describe(want[i]))
		}
	}
}

func describe(e jacobianEntry) string {
	return fmt.Sprintf("%s seed %d point %d %s %d sha256 %s", e.Model, e.Seed, e.Point, e.Kind, e.Site, e.SHA256[:12])
}
