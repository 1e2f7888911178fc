package goldeneye

import (
	"context"
	"sync"
)

// RaceEnabled exposes raceEnabled to the external goldeneye_test package.
const RaceEnabled = raceEnabled

// ResetCalibrationCache empties the process-wide calibration cache, so the
// next campaign of every key runs its setup sweeps.
func ResetCalibrationCache() { calibrations.Clear() }

// WithoutCalibrationCache runs f with the calibration cache bypassed: every
// campaign f runs computes its own clean state and stores nothing.
func WithoutCalibrationCache(f func()) {
	calibrationsOff.Store(true)
	defer calibrationsOff.Store(false)
	f()
}

// CalibrationCacheLen returns the number of cached clean states.
func CalibrationCacheLen() int { return calibrations.Len() }

// setupAt runs only the setup of campaign cfg, on one worker per
// simulator, all starting at once, with the calibration cache bypassed, so
// the workers always run the setup sweeps. It returns the calibration, the
// workers' runners (close restores each worker's weights) and the setup's
// error.
func setupAt(cfg CampaignConfig, sims []*Simulator) (*calibration, []*campaignRunner, error) {
	calibrationsOff.Store(true)
	defer calibrationsOff.Store(false)
	g, err := sims[0].campaignGeometry(cfg)
	if err != nil {
		return nil, nil, err
	}
	e := &engine{cfg: cfg, geom: g, ctx: context.Background(), workers: len(sims), stride: len(sims)}
	runners := make([]*campaignRunner, len(sims))
	for w, sim := range sims {
		runners[w] = sim.newRunner(cfg)
	}
	var wg sync.WaitGroup
	for _, r := range runners {
		wg.Add(1)
		go func(r *campaignRunner) {
			defer wg.Done()
			_ = e.setup(r) // every worker sees the same first failure
		}(r)
	}
	wg.Wait()
	return e.cal, runners, e.setupErr()
}
