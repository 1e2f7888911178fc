package goldeneye

import (
	"context"
	"sync"
	"testing"

	"goldeneye/internal/inject"
	"goldeneye/internal/zoo"
)

// TestCampaignProgress pins the Progress hook contract on both entry
// points: cumulative executed-injection counts, monotonically
// non-decreasing, ending exactly at the planned total.
func TestCampaignProgress(t *testing.T) {
	model, ds, err := zoo.Pretrained("mlp")
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	sim := Wrap(model, ds.ValX)
	f, err := ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	const total = 6
	base := CampaignConfig{
		Format:     f,
		Injections: total,
		Seed:       1,
		Layer:      1,
		Site:       inject.SiteValue,
		Target:     inject.TargetNeuron,
		Pool:       &EvalPool{X: ds.ValX.Slice(0, 8), Y: ds.ValY[:8], Batch: 4},
	}

	t.Run("serial", func(t *testing.T) {
		var got []int
		cfg := base
		cfg.Progress = func(done, planned int) {
			if planned != total {
				t.Errorf("planned: got %d, want %d", planned, total)
			}
			got = append(got, done)
		}
		if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[len(got)-1] != total {
			t.Fatalf("progress must end at %d, got %v", total, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("progress not monotonic: %v", got)
			}
		}
	})

	t.Run("parallel", func(t *testing.T) {
		var mu sync.Mutex
		var got []int
		cfg := base
		cfg.Progress = func(done, planned int) {
			mu.Lock()
			got = append(got, done)
			mu.Unlock()
		}
		_, err := RunCampaignParallel(context.Background(), cfg, 3, func() (*Simulator, error) {
			m, d, err := zoo.Pretrained("mlp")
			if err != nil {
				return nil, err
			}
			return Wrap(m, d.ValX), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		max := 0
		for _, v := range got {
			if v > max {
				max = v
			}
		}
		if max != total {
			t.Fatalf("parallel progress must reach %d, got %v", total, got)
		}
	})

	t.Run("resume-prefix", func(t *testing.T) {
		// A resumed campaign reports the replayed prefix immediately, so
		// progress bars start at the resume point, not zero.
		prefix := base
		prefix.Injections = 3
		partial, err := sim.RunCampaign(context.Background(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		resumed := base
		resumed.Resume = partial
		resumed.Progress = func(done, planned int) { got = append(got, done) }
		if _, err := sim.RunCampaign(context.Background(), resumed); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0] != 3 {
			t.Fatalf("resumed progress must start at the replayed prefix (3), got %v", got)
		}
		if got[len(got)-1] != total {
			t.Fatalf("resumed progress must end at %d, got %v", total, got)
		}
	})
}
