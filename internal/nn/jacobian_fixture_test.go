package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
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
// the returned value followed by the Jacobian's shape and entries. A forward
// entry (Lock set, Point and Site -1) instead pins one kind of forward pass
// over every point and site of one locked network.
type jacobianEntry struct {
	Model  string `json:"model"`
	Lock   string `json:"lock,omitempty"`
	Seed   int64  `json:"seed"`
	Point  int    `json:"point"`
	Kind   string `json:"kind"` // "pre" (flip site), "relu" (ReLU site), "out", or a forward kind
	Site   int    `json:"site"`
	SHA256 string `json:"sha256"`
}

// digest feeds lengths and float64 bits into one SHA-256.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) word(u uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], u)
	d.h.Write(d.buf[:])
}

func (d *digest) float(x float64) { d.word(math.Float64bits(x)) }

// vec writes v's length, then its elements.
func (d *digest) vec(v []float64) {
	d.word(uint64(len(v)))
	for _, x := range v {
		d.float(x)
	}
}

// matrix writes m's shape, then its elements.
func (d *digest) matrix(m *tensor.Matrix) {
	d.word(uint64(m.Rows))
	d.word(uint64(m.Cols))
	for _, x := range m.Data {
		d.float(x)
	}
}

// trace writes every recorded signal of tr; a site the pass never reached
// writes length 0.
func (d *digest) trace(tr *nn.Trace) {
	for _, sites := range [][][]float64{tr.Pre, tr.Post, tr.ReluIn} {
		for _, v := range sites {
			d.vec(v)
		}
	}
	for _, pat := range tr.Patterns {
		d.word(uint64(len(pat)))
		for _, on := range pat {
			if on {
				d.word(1)
			} else {
				d.word(0)
			}
		}
	}
	d.vec(tr.Out)
}

// prefix writes the boundary activations sl.PrefixForward computes for xs.
func (d *digest) prefix(sl *nn.Slice, xs *tensor.Matrix) {
	h := sl.PrefixForward(xs)
	if h != xs {
		defer tensor.PutMatrix(h)
	}
	d.matrix(h)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// hashJacobian digests a value and its Jacobian bit for bit.
func hashJacobian(v []float64, j *tensor.Matrix) string {
	d := newDigest()
	d.vec(v)
	d.matrix(j)
	return d.sum()
}

// tinyBuilds are the four tiny models every fixture entry is taken on.
var tinyBuilds = []struct {
	name  string
	build func(*rand.Rand) *nn.Network
}{
	{"mlp", models.TinyMLP},
	{"lenet", models.TinyLeNet},
	{"resnet", models.TinyResNet},
	{"vtransformer", models.TinyVTransformer},
}

// jacobianEntries evaluates every flip-site, ReLU-site and output Jacobian
// of the four tiny models, each locked with seeds 1–3, at three random
// points per network.
func jacobianEntries() []jacobianEntry {
	var out []jacobianEntry
	for _, b := range tinyBuilds {
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

// forwardLocks are the locks the forward entries are taken under: the
// three pre-activation schemes, so that sign flips, non-±1 signs and
// offsets are covered, and a Negation lock whose first flip site is
// softened in the gated relaxation and whose last in the ungated one.
var forwardLocks = []struct {
	name string
	cfg  hpnn.Config
	soft bool
}{
	{"negation", hpnn.Config{Scheme: hpnn.Negation}, false},
	{"bias-shift", hpnn.Config{Scheme: hpnn.BiasShift, Alpha: 0.8}, false},
	{"scaling", hpnn.Config{Scheme: hpnn.Scaling, Alpha: 0.5}, false},
	{"soft", hpnn.Config{Scheme: hpnn.Negation}, true},
}

// softenEnds softens random indices of the first flip site (gated) and of
// the last (ungated, when it is another site) at random weights.
func softenEnds(net *nn.Network, rng *rand.Rand) {
	soften := func(f *nn.Flip, gated bool) {
		p := f.Soften(rng.Perm(f.N)[:1+f.N/2], gated)
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat64()
		}
	}
	flips := net.Flips()
	soften(flips[0], true)
	if last := flips[len(flips)-1]; last != flips[0] {
		soften(last, false)
	}
}

// forwardEntries pins every forward pass the attack runs, on the four tiny
// models under each of forwardLocks with seeds 1–3, at four random points
// per network: the logits, the full trace, the traces stopped at each flip
// site, PostAt and ReluInAt at every index of every site,
// ForwardBatch over the points, and PrefixForward of the points at every
// split. One SHA-256 covers one (model, lock, seed, kind).
func forwardEntries() []jacobianEntry {
	const points = 4
	kinds := []string{"forward", "trace", "trace_to", "post_at", "relu_in_at", "forward_batch", "prefix_forward"}
	var out []jacobianEntry
	for _, b := range tinyBuilds {
		for _, lock := range forwardLocks {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				net := b.build(rng)
				cfg := lock.cfg
				cfg.KeyBits, cfg.Rng = 8, rng
				hpnn.Lock(net, cfg)
				if lock.soft {
					softenEnds(net, rng)
				}
				xs := tensor.New(points, net.InSize())
				for i := range xs.Data {
					xs.Data[i] = rng.NormFloat64()
				}
				ds := make(map[string]*digest, len(kinds))
				for _, k := range kinds {
					ds[k] = newDigest()
				}
				for p := 0; p < points; p++ {
					x := xs.Row(p)
					ds["forward"].vec(net.Forward(x))
					ds["trace"].trace(net.ForwardTrace(x))
					for s := 0; s < net.NumFlipSites(); s++ {
						ds["trace_to"].trace(net.ForwardTraceTo(x, s))
					}
					for s, f := range net.Flips() {
						for i := 0; i < f.N; i++ {
							ds["post_at"].float(net.PostAt(x, s, i))
						}
					}
					for r, rl := range net.ReLUs() {
						for i := 0; i < rl.N; i++ {
							ds["relu_in_at"].float(net.ReluInAt(x, r, i))
						}
					}
				}
				y := net.ForwardBatch(xs)
				ds["forward_batch"].matrix(y)
				tensor.PutMatrix(y)
				for s := 0; s < net.NumFlipSites(); s++ {
					ds["prefix_forward"].prefix(net.Split(s), xs)
				}
				for _, k := range kinds {
					out = append(out, jacobianEntry{
						Model: b.name, Lock: lock.name, Seed: seed, Point: -1,
						Kind: k, Site: -1, SHA256: ds[k].sum(),
					})
				}
			}
		}
	}
	return out
}

// TestJacobianFixture pins every Jacobian the attack's probe geometry can
// ask for — flip-site pre-activations, ReLU inputs and the output, with
// their values — and every forward pass its probes run (forwardEntries)
// bit for bit against testdata/jacobians.json. Rewrite the fixture with
// `go test ./internal/nn -run TestJacobianFixture -update` only when a
// change is meant to move these numbers.
func TestJacobianFixture(t *testing.T) {
	got := append(jacobianEntries(), forwardEntries()...)
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
		t.Fatalf("%d entries, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %s, want %s", i, describe(got[i]), describe(want[i]))
		}
	}
}

func describe(e jacobianEntry) string {
	return fmt.Sprintf("%s %s seed %d point %d %s %d sha256 %s", e.Model, e.Lock, e.Seed, e.Point, e.Kind, e.Site, e.SHA256[:12])
}
