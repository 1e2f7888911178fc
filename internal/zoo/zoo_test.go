package zoo

import (
	"path/filepath"
	"testing"

	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	// Perturb weights so the round trip is meaningful.
	a.Params()[0].Value.Data()[0] = 1.234
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 99) // different init
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng.New(1), 1, 2, models.InChannels, models.InHeight, models.InWidth)
	if !nn.Forward(nil, a, x).AllClose(nn.Forward(nil, b, x), 0) {
		t.Fatal("loaded model behaves differently")
	}
}

func TestLoadStateRejectsMismatchedModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.gob")
	a, _ := models.Build("mlp", 10, 1)
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("resnet_s", 10, 1)
	if err := LoadState(b, path); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestLoadStateMissingFile(t *testing.T) {
	a, _ := models.Build("mlp", 10, 1)
	if err := LoadState(a, filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestPretrainedTrainsAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	m1, ds, err := PretrainedIn(dir, "mlp")
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache and produce identical weights.
	m2, _, err := PretrainedIn(dir, "mlp")
	if err != nil {
		t.Fatal(err)
	}
	x := ds.ValX.Slice(0, 4)
	if !nn.Forward(nil, m1, x).AllClose(nn.Forward(nil, m2, x), 0) {
		t.Fatal("cache round trip changed the model")
	}
}

func TestPretrainedUnknownModel(t *testing.T) {
	if _, _, err := PretrainedIn(t.TempDir(), "nope"); err == nil {
		t.Fatal("expected error")
	}
}

// A file SaveState rewrites at a path LoadState has already decoded must
// be read again, not served from the process's decoded copy.
func TestLoadStateRereadsRewrittenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	w := a.Params()[0].Value.Data()
	w[0] = 1.5
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 3)
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	if got := b.Params()[0].Value.Data()[0]; got != 1.5 {
		t.Fatalf("first load: weight %v, want 1.5", got)
	}
	w[0] = -2.5
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	if got := b.Params()[0].Value.Data()[0]; got != -2.5 {
		t.Fatalf("load after rewrite: weight %v, want -2.5", got)
	}
}

// Two models loaded from one file hold their own parameter storage: a
// write to one reaches neither the other nor a later load.
func TestLoadStateModelsShareNoStorage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 4)
	c, _ := models.Build("mlp", 10, 5)
	for _, m := range []nn.Module{b, c} {
		if err := LoadState(m, path); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range b.Params() {
		q := c.Params()[i].Value.Data()
		if &p.Value.Data()[0] == &q[0] {
			t.Fatalf("param %s: both models hold the same storage", p.Name)
		}
		want := q[0]
		p.Value.Data()[0] = want + 1
		if q[0] != want {
			t.Fatalf("param %s: a write to one model reached the other", p.Name)
		}
	}
	d, _ := models.Build("mlp", 10, 6)
	if err := LoadState(d, path); err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Params() {
		if got, want := p.Value.Data()[0], a.Params()[i].Value.Data()[0]; got != want {
			t.Fatalf("param %s: a later load reads %v, the file holds %v", p.Name, got, want)
		}
	}
}
