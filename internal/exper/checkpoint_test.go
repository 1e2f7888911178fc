package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"goldeneye"
	"goldeneye/internal/checkpoint"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
)

// countingFormat counts Quantize calls (one per executed injection when
// neither emulation nor the ranger quantizes anything else) and can cancel
// a context from inside the nth call to interrupt a sweep deterministically.
type countingFormat struct {
	numfmt.Format
	calls    *atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
}

func (f *countingFormat) Quantize(t *tensor.Tensor) *numfmt.Encoding {
	if n := f.calls.Add(1); f.cancel != nil && n == f.cancelAt {
		f.cancel()
	}
	return f.Format.Quantize(t)
}

func cellConfig(sim *goldeneye.Simulator, x *goldeneye.Tensor, y []int, injections int) goldeneye.CampaignConfig {
	return goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: injections,
		Seed:       31,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
}

func TestRunCellServesCompletedCellWithoutRerun(t *testing.T) {
	sim, ds, err := loadSim("mlp", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, y := ds.ValX.Slice(0, 8), ds.ValY[:8]
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Checkpoint = st

	calls := new(atomic.Int64)
	cfg := cellConfig(sim, x, y, 20)
	cfg.Format = &countingFormat{Format: numfmt.FP16(true), calls: calls}

	first, err := runCell(context.Background(), sim, "test/cell", cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	ran := calls.Load()
	if ran != 20 {
		t.Fatalf("fresh cell executed %d injections, want 20", ran)
	}

	second, err := runCell(context.Background(), sim, "test/cell", cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != ran {
		t.Fatalf("completed cell re-ran injections: %d calls after replay", calls.Load())
	}
	if second.CampaignResult != first.CampaignResult || second.Detected != first.Detected {
		t.Fatalf("checkpointed report differs: %+v vs %+v", second.CampaignResult, first.CampaignResult)
	}
}

func TestRunCellResumesInterruptedCellBitIdentical(t *testing.T) {
	sim, ds, err := loadSim("mlp", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, y := ds.ValX.Slice(0, 8), ds.ValY[:8]

	for _, tc := range []struct {
		name      string
		detectors []string
		recovery  string
	}{
		{"plain", nil, ""},
		{"ranger_clamp", []string{"ranger"}, "clamp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tinyOptions()
			o.Detectors, o.Recovery = tc.detectors, tc.recovery

			// Reference: the same cell run uninterrupted without a store.
			want, err := runCell(context.Background(), sim, "test/resume", cellConfig(sim, x, y, 40), o)
			if err != nil {
				t.Fatal(err)
			}

			st, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o.Checkpoint = st

			// Interrupt the cell from inside injection 12 — runCell must
			// persist the partial state before surfacing the cancellation.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := cellConfig(sim, x, y, 40)
			cfg.Format = &countingFormat{Format: numfmt.FP16(true), calls: new(atomic.Int64), cancelAt: 12, cancel: cancel}
			if _, err := runCell(ctx, sim, "test/resume", cfg, o); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			cell, err := st.Load("test/resume")
			if err != nil || cell == nil {
				t.Fatalf("interrupted cell not persisted: cell=%v err=%v", cell, err)
			}
			if executed := cell.Report.Injections + cell.Report.Aborted; cell.Done || executed != 12 {
				t.Fatalf("persisted cell state wrong: done=%v executed=%d, want partial at 12", cell.Done, executed)
			}

			// Resume: only the remaining 28 injections execute, and the
			// merged report matches the uninterrupted run bit for bit.
			resumed := new(atomic.Int64)
			cfg = cellConfig(sim, x, y, 40)
			cfg.Format = &countingFormat{Format: numfmt.FP16(true), calls: resumed}
			got, err := runCell(context.Background(), sim, "test/resume", cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Load() != 28 {
				t.Fatalf("resume executed %d injections, want the remaining 28", resumed.Load())
			}
			if g, w := wireBytes(t, got), wireBytes(t, want); !bytes.Equal(g, w) {
				t.Fatalf("resumed cell diverges from uninterrupted run:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// wireBytes is a report's wire encoding.
func wireBytes(t *testing.T, rep *goldeneye.CampaignReport) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Ranger-armed cells run through a checkpoint store share their clean
// state through the calibration cache: of two cells that differ only in
// seed, the second reads a hit, and both reports carry the wire bytes of
// the same cells run without a store.
func TestRunCellRangerCellsShareCalibration(t *testing.T) {
	sim, ds, err := loadSim("mlp", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, y := ds.ValX.Slice(0, 8), ds.ValY[:8]
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Detectors, o.Recovery = []string{"ranger"}, "clamp"
	stored := o
	stored.Checkpoint = st

	for i, seed := range []uint64{41, 42} {
		cfg := cellConfig(sim, x, y, 20)
		cfg.Seed = seed
		cfg.Metrics = telemetry.NewRegistry()
		got, err := runCell(context.Background(), sim, fmt.Sprintf("test/ranger/%d", seed), cfg, stored)
		if err != nil {
			t.Fatal(err)
		}
		outcome := func(o string) int64 {
			return cfg.Metrics.Counter(telemetry.Label(goldeneye.MetricCampaignCalibrationCache, "outcome", o)).Value()
		}
		if outcome("bypass") != 0 {
			t.Errorf("cell %d bypassed the calibration cache", i)
		}
		if i == 1 && outcome("hit") != 1 {
			t.Errorf("second cell: calibration cache hit/miss %d/%d, want 1/0", outcome("hit"), outcome("miss"))
		}

		cfg.Metrics = nil
		want, err := runCell(context.Background(), sim, "", cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := wireBytes(t, got), wireBytes(t, want); !bytes.Equal(g, w) {
			t.Errorf("cell %d through the store differs from a store-less run:\n got %s\nwant %s", i, g, w)
		}
	}
}

func TestRunCellDiscardsStaleHash(t *testing.T) {
	sim, ds, err := loadSim("mlp", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, y := ds.ValX.Slice(0, 8), ds.ValY[:8]
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Checkpoint = st

	cfg := cellConfig(sim, x, y, 20)
	if _, err := runCell(context.Background(), sim, "test/stale", cfg, o); err != nil {
		t.Fatal(err)
	}

	// Same key, different seed: the persisted cell no longer applies and
	// the campaign must re-run from scratch rather than resume.
	calls := new(atomic.Int64)
	cfg = cellConfig(sim, x, y, 20)
	cfg.Seed = 99
	cfg.Format = &countingFormat{Format: numfmt.FP16(true), calls: calls}
	if _, err := runCell(context.Background(), sim, "test/stale", cfg, o); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 {
		t.Fatalf("stale cell was reused: only %d injections executed", calls.Load())
	}
}
