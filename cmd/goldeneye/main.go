// Command goldeneye is the interactive front-end to the simulator: evaluate
// a model's accuracy under any number format, run fault-injection
// campaigns, explore format design spaces, and inspect format properties.
//
//	goldeneye range                                  # Table I-style format ranges
//	goldeneye layers  -model resnet_s                # enumerate hookable layers
//	goldeneye eval    -model resnet_s -format fp8_e4m3
//	goldeneye inject  -model resnet_s -format bfp_e5m5 -layer 6 -site metadata -n 1000
//	goldeneye inject  -model resnet_s -format int8 -n 1000 -campaign-batch 32
//	goldeneye dse     -model vit_tiny -family afp -threshold 0.01
//
// Format specifications accept presets (fp16, bfloat16, int8, …) and
// generic geometries (fp_e4m3, fxp_1_7_8, bfp_e5m5_b16, afp_e4m4); append
// "_nodn" to disable denormals. Models are trained on first use and cached.
//
// Observability (any subcommand; see the README's Observability section):
//
//	-progress            live progress line with injections/sec (inject)
//	-metrics             final Prometheus-text metrics dump on stdout
//	-debug-addr addr     HTTP server with /metrics, /metrics.json, /debug/pprof/
//
// Robustness: SIGINT/SIGTERM stop a campaign at the next injection
// boundary and still print the partial report. A panic inside one
// injected inference aborts only that injection (counted in the report's
// "aborted" line); -max-aborts N fails the campaign once N injections
// have aborted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/dse"
	"goldeneye/internal/exper"
	"goldeneye/internal/fleet"
	"goldeneye/internal/inject"
	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/sampling"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/zoo"
)

func main() {
	// SIGINT/SIGTERM cancel the context; run unwinds its deferred cleanup
	// (metrics dump, progress watcher, debug server) before main exits, so
	// an interrupted campaign still reports what it completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goldeneye:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: goldeneye <range|models|layers|eval|inject|dse> [flags]")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		model     = fs.String("model", "resnet_s", fmt.Sprintf("model name %v", models.Names()))
		format    = fs.String("format", "fp16", `number format specification. Without -format-map, eval runs the network in it (-format-map "p:F,a:F": every parameter converted, CONV/LINEAR activations emulated) and inject emulates activations in it ("a:F") and injects into it; with -format-map, it is only the injection format, and only when passed explicitly`)
		formatMap = fs.String("format-map", "", `per-layer role formats, e.g. "p:int8,a:int8" or "w:bf16,a:fp8_e4m3,acc:fp32;4=a:fp16" (roles w/a/acc; p converts every parameter, default segment only; ";N=" overrides layer N); replaces -format emulation for eval and inject`)
		layer     = fs.Int("layer", -1, "layer visit index (-1 = middle injectable layer)")
		site      = fs.String("site", "value", "injection site: value|metadata|accum")
		target    = fs.String("target", "neuron", "injection target: neuron|weight")
		n         = fs.Int("n", 1000, "number of injections")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		family    = fs.String("family", "fp", "DSE family: fp|fxp|int|bfp|afp")
		mixed     = fs.String("mixed", "", `mixed-assignment DSE: "|"-separated per-layer role-triple candidates, e.g. "w:fp16,a:fp16,acc:fp32|w:fp8_e4m3,a:fp8_e4m3" (dse)`)
		threshold = fs.Float64("threshold", 0.01, "DSE accuracy-loss threshold")
		ranger    = fs.Bool("ranger", true, "enable the range detector")
		samples   = fs.Int("samples", 300, "validation samples")
		batch     = fs.Int("batch", 30, "evaluation batch size")
		packBatch = fs.Int("campaign-batch", 1, "faults packed per forward pass (inject); reports are bit-identical at any value")
		workers   = fs.Int("workers", 1, "parallel campaign workers (inject)")
		maxAborts = fs.Int("max-aborts", 0, "fail the campaign after this many aborted injections (0 = unlimited degraded mode)")
		detectors = fs.String("detectors", "", "comma-separated detection pipeline (inject): ranger,sentinel,dmr,abft")
		recovery  = fs.String("recovery", "none", "recovery policy for detected faults (inject): none|clamp|zero|reexecute|abort")
		serverURL = fs.String("server", "", "submit the campaign to a goldeneyed daemon at this base URL instead of running locally (inject)")
		fleetURLs = fs.String("fleet", "", "comma-separated goldeneyed base URLs: shard the campaign across this fleet and merge the reports (inject)")
		fleetN    = fs.Int("fleet-shards", 0, "shard count for -fleet (0 = one shard per node)")
		fleetMin  = fs.Int("fleet-min", 1, "minimum healthy nodes a -fleet campaign tolerates before failing")
		deadline  = fs.Duration("job-deadline", 0, "per-job execution bound on the daemon (inject with -server); an expiring job returns its partial report (0 = unbounded)")
		sample    = fs.Float64("sample", 1, "fraction of the fault space to execute (inject); <1 turns the campaign into a stratified estimator with a 95% CI")
		sampleStr = fs.String("sample-strata", "", `per-stratum sampling fractions, e.g. "exponent=1,mantissa=0.05" (strata are bit roles of the injection format)`)
		prune     = fs.Bool("prune", false, "analytically prune provably-masked faults via ranger calibration bounds (inject; requires -ranger)")
		pruneEps  = fs.Float64("prune-eps", 0, "pruning tolerance: a bit is masked when its worst-case perturbation stays below this fraction of the layer's dynamic range (0 = the plan default)")
		targetCI  = fs.Float64("target-ci", 0, "stop the sampled campaign once the SDC-rate 95% CI half-width reaches this bound (inject; 0 = run the full selection)")
		progress  = fs.Bool("progress", false, "render a live progress line (campaigns) and imply -metrics")
		metricsFl = fs.Bool("metrics", false, "print a final metrics dump (Prometheus text) to stdout")
		debugAddr = fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}

	var reg *telemetry.Registry
	if *progress || *metricsFl || *debugAddr != "" {
		reg = telemetry.Default()
		goldeneye.RegisterRuntimeCollectors(reg)
	}
	if *debugAddr != "" {
		bound, shutdown, derr := telemetry.ServeDebug(*debugAddr, reg)
		if derr != nil {
			return derr
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /metrics.json, /debug/pprof/)\n", bound)
	}
	if *metricsFl || *progress {
		defer func() {
			fmt.Println("\n== metrics ==")
			reg.WritePrometheus(os.Stdout)
		}()
	}

	if cmd == "range" {
		exper.Table1(os.Stdout)
		return nil
	}
	if cmd == "models" {
		ds := dataset.New(dataset.Default())
		for _, name := range models.Names() {
			m, err := models.Build(name, ds.Config.Classes, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %8d params\n", name, nn.ParamCount(m))
		}
		return nil
	}

	// formatSet reports whether -format was passed explicitly: with a
	// -format-map, an untouched -format default must not also become the
	// injection format (the assignment's roles resolve it instead).
	formatSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "format" {
			formatSet = true
		}
	})

	// parseAssignment resolves the -format-map flag (nil when unset).
	parseAssignment := func() (*goldeneye.FormatAssignment, error) {
		if *formatMap == "" {
			return nil, nil
		}
		return goldeneye.ParseFormatMap(*formatMap)
	}

	// buildCampaign assembles the campaign configuration shared by the
	// local and remote inject paths. Layer may stay -1: the executing side
	// (simulator or daemon) resolves the model's default injection layer.
	// With a -format-map, the assignment drives emulation and -format is
	// honored only when passed explicitly (as the injection format).
	buildCampaign := func() (goldeneye.CampaignConfig, error) {
		asg, err := parseAssignment()
		if err != nil {
			return goldeneye.CampaignConfig{}, err
		}
		cfg := goldeneye.CampaignConfig{
			Assignment: asg,
			Injections: *n,
			Seed:       *seed,
			Layer:      *layer,
			BatchSize:  *packBatch,
			UseRanger:  *ranger,
			MaxAborts:  *maxAborts,
		}
		if asg == nil || formatSet {
			if cfg.Format, err = goldeneye.ParseFormat(*format); err != nil {
				return goldeneye.CampaignConfig{}, err
			}
		}
		if asg == nil {
			cfg.Assignment = &goldeneye.FormatAssignment{
				Default: goldeneye.RoleFormats{Activations: cfg.Format},
			}
		}
		if *detectors != "" {
			if cfg.Detectors, err = goldeneye.ParseDetectors(*detectors); err != nil {
				return goldeneye.CampaignConfig{}, err
			}
			if cfg.Recovery, err = goldeneye.ParseRecovery(*recovery); err != nil {
				return goldeneye.CampaignConfig{}, err
			}
		}
		if cfg.Site, err = inject.ParseSite(*site); err != nil {
			return goldeneye.CampaignConfig{}, err
		}
		if cfg.Target, err = inject.ParseTarget(*target); err != nil {
			return goldeneye.CampaignConfig{}, err
		}
		if cfg.Sampling, err = goldeneye.ParseSamplingPlan(*sample, *sampleStr, *prune, *pruneEps, *targetCI); err != nil {
			return goldeneye.CampaignConfig{}, err
		}
		return cfg, nil
	}

	// Fleet submission: shard the campaign across several daemons and
	// merge, byte-identical to a single node at workers=shards.
	if cmd == "inject" && *fleetURLs != "" {
		cfg, err := buildCampaign()
		if err != nil {
			return err
		}
		return runFleetInject(ctx, *fleetURLs, *model, *samples, *batch, *fleetN, *fleetMin, cfg, *progress)
	}

	// Remote submission needs no local model: the daemon resolves the
	// model, pool, and default layer on its side.
	if cmd == "inject" && *serverURL != "" {
		cfg, err := buildCampaign()
		if err != nil {
			return err
		}
		if plan := cfg.Sampling; plan != nil {
			fmt.Printf("plan:          %s\n", describeSamplingPlan(plan))
		}
		return runRemoteInject(ctx, *serverURL, *model, *samples, *batch, *workers, *deadline, cfg, *progress)
	}

	m, ds, err := zoo.Pretrained(*model)
	if err != nil {
		return err
	}
	sim := goldeneye.Wrap(m, ds.ValX)
	nVal := *samples
	if nVal > ds.ValLen() {
		nVal = ds.ValLen()
	}
	evalBatch := *batch
	if evalBatch > nVal {
		evalBatch = nVal
	}
	pool, err := goldeneye.NewEvalPool(ds.ValX.Slice(0, nVal), ds.ValY[:nVal], evalBatch)
	if err != nil {
		return err
	}

	switch cmd {
	case "layers":
		for _, l := range sim.Layers() {
			fmt.Printf("%3d  %-28s %-10s out=%d\n", l.Index, l.Name, l.Kind, sim.LayerOutputSize(l.Index))
		}
		return nil

	case "eval":
		asg, err := parseAssignment()
		if err != nil {
			return err
		}
		var emuCfg goldeneye.EmulationConfig
		label := ""
		if asg != nil {
			emuCfg = goldeneye.EmulationConfig{Assignment: asg}
			label = asg.Canonical()
		} else {
			f, ferr := goldeneye.ParseFormat(*format)
			if ferr != nil {
				return ferr
			}
			emuCfg = goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
				Default: goldeneye.RoleFormats{Activations: f}, Params: f,
			}}
			label = f.Name()
		}
		native := sim.EvaluatePool(pool, goldeneye.EmulationConfig{})
		emulated := sim.EvaluatePool(pool, emuCfg)
		fmt.Printf("model=%s samples=%d\n", *model, nVal)
		fmt.Printf("native fp32:  %.4f\n", native)
		fmt.Printf("%-12s  %.4f (Δ %+0.4f)\n", label+":", emulated, emulated-native)
		return nil

	case "inject":
		cfg, err := buildCampaign()
		if err != nil {
			return err
		}
		cfg.Pool = pool
		if cfg.Layer < 0 {
			cfg.Layer = sim.DefaultInjectionLayer(cfg.Target)
			if cfg.Layer < 0 {
				return fmt.Errorf("model %s has no injectable layers for target %s", *model, cfg.Target)
			}
		}
		cfg.Metrics = reg
		if plan := cfg.Sampling; plan != nil {
			fmt.Printf("plan:          %s\n", describeSamplingPlan(plan))
		}
		if *progress {
			stop := telemetry.WatchProgress(os.Stderr, "inject",
				reg.Counter(goldeneye.MetricCampaignInjections), int64(*n), 500*time.Millisecond)
			defer stop()
		}
		var rep *goldeneye.CampaignReport
		if *workers > 1 {
			rep, err = goldeneye.RunCampaignParallel(ctx, cfg, *workers, func() (*goldeneye.Simulator, error) {
				wm, wds, werr := zoo.Pretrained(*model)
				if werr != nil {
					return nil, werr
				}
				return goldeneye.Wrap(wm, wds.ValX), nil
			})
		} else {
			rep, err = sim.RunCampaign(ctx, cfg)
		}
		if err != nil {
			// A cancelled campaign still yields the partial report over its
			// completed prefix; print it and exit cleanly (the deferred
			// metrics dump and progress stop run on unwind).
			if rep == nil || !errors.Is(err, context.Canceled) {
				return err
			}
		}
		printInjectReport(*model, rep)
		return nil

	case "dse":
		if *mixed != "" {
			return runMixedDSE(sim, pool, *model, *mixed, *threshold)
		}
		res := sim.RunDSE(pool.X, pool.Y, *batch, goldeneye.DSEConfig{
			Family:    dse.Family(*family),
			Threshold: *threshold,
		})
		fmt.Printf("model=%s family=%s threshold=%.3f\n", *model, *family, *threshold)
		for _, node := range res.Nodes {
			mark := " "
			if node.Accepted {
				mark = "✓"
			}
			fmt.Printf("node %2d: %-14s acc=%.4f %s\n", node.Order, node.Point, node.Accuracy, mark)
		}
		if res.Best != nil {
			fmt.Printf("best: %s (acc %.4f)\n", res.Best.Point, res.Best.Accuracy)
		} else {
			fmt.Println("no acceptable design point")
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runMixedDSE runs the per-layer mixed-assignment search: spec is the
// "|"-separated candidate menu, each segment a ParseRoleFormats triple.
func runMixedDSE(sim *goldeneye.Simulator, pool *goldeneye.EvalPool, model, spec string, threshold float64) error {
	var cands []goldeneye.MixedDSECandidate
	for _, seg := range strings.Split(spec, "|") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return fmt.Errorf("mixed candidate list has an empty segment")
		}
		rf, err := goldeneye.ParseRoleFormats(seg)
		if err != nil {
			return fmt.Errorf("mixed candidate %q: %w", seg, err)
		}
		cands = append(cands, goldeneye.MixedDSECandidate{
			Name:        rf.Canonical(),
			Weights:     rf.Weights,
			Activations: rf.Activations,
			Accumulator: rf.Accumulator,
		})
	}
	res := sim.RunMixedDSE(pool, goldeneye.MixedDSEConfig{
		Candidates: cands,
		Threshold:  threshold,
	})
	fmt.Printf("model=%s mixed candidates=%d layers=%d threshold=%.3f baseline=%.4f\n",
		model, len(res.Candidates), len(res.Config.Layers), threshold, res.Config.Baseline)
	for _, node := range res.Nodes {
		mark := " "
		if node.Accepted {
			mark = "✓"
		}
		fmt.Printf("node %2d: cost=%7.1f acc=%.4f %s  %s\n",
			node.Order, node.Cost, node.Accuracy, mark, res.Describe(node))
	}
	fmt.Println("frontier (cost asc):")
	for _, node := range res.Frontier {
		fmt.Printf("  cost=%7.1f acc=%.4f  %s\n", node.Cost, node.Accuracy, res.Describe(node))
	}
	if res.Best != nil {
		fmt.Printf("best: cost=%.1f acc=%.4f  %s\n", res.Best.Cost, res.Best.Accuracy, res.Describe(*res.Best))
		fmt.Printf("      format-map: %s\n",
			goldeneye.MixedAssignment(res.Candidates, res.Best.Assignment).Canonical())
	} else {
		fmt.Println("no acceptable mixed assignment")
	}
	return nil
}

// describeSamplingPlan renders the one-line plan summary printed before a
// sampled campaign runs.
func describeSamplingPlan(plan *sampling.Plan) string {
	parts := []string{fmt.Sprintf("sample %g", plan.Fraction)}
	if len(plan.Strata) > 0 {
		names := make([]string, 0, len(plan.Strata))
		for name := range plan.Strata {
			names = append(names, name)
		}
		sort.Strings(names)
		over := make([]string, len(names))
		for i, name := range names {
			over[i] = fmt.Sprintf("%s=%g", name, plan.Strata[name])
		}
		parts = append(parts, "strata "+strings.Join(over, ","))
	}
	if plan.Prune {
		parts = append(parts, fmt.Sprintf("prune ε=%g", plan.PruneEpsilon()))
	}
	if plan.TargetCI > 0 {
		parts = append(parts, fmt.Sprintf("stop at CI ±%g (review every %d)", plan.TargetCI, plan.Interval()))
	}
	return strings.Join(parts, ", ")
}

// printInjectReport renders a campaign report from its own resolved
// configuration, so local and remote runs print identically.
func printInjectReport(model string, rep *goldeneye.CampaignReport) {
	cfg := rep.Config
	formatLabel := "-"
	switch {
	case cfg.Format != nil:
		formatLabel = cfg.Format.Name()
	case cfg.Assignment != nil:
		formatLabel = cfg.Assignment.Canonical()
	}
	fmt.Printf("model=%s format=%s layer=%d site=%s target=%s injections=%d\n",
		model, formatLabel, cfg.Layer, cfg.Site, cfg.Target, rep.Injections)
	if cfg.Format != nil && cfg.Assignment != nil {
		fmt.Printf("assignment:    %s\n", cfg.Assignment.Canonical())
	}
	fmt.Printf("mean ΔLoss:    %.5f (±%.5f at 95%%)\n", rep.MeanDeltaLoss(), rep.DeltaLoss.CI95())
	fmt.Printf("mismatch rate: %.4f (%d/%d)\n", rep.MismatchRate(), rep.Mismatches, rep.Injections)
	fmt.Printf("non-finite:    %d\n", rep.NonFinite)
	if rep.Aborted > 0 {
		fmt.Printf("aborted:       %d (degraded mode)\n", rep.Aborted)
	}
	if len(cfg.Detectors) > 0 {
		fmt.Printf("detected:      %d (coverage %.3f, recovery %s, recovered %.3f)\n",
			rep.Detected, rep.DetectionCoverage(), cfg.Recovery, rep.RecoveryRate())
		for _, spec := range cfg.Detectors {
			st := rep.PerDetector[spec.Kind]
			fmt.Printf("  %-9s detections=%d recovered=%d false-positives=%d/%d\n",
				spec.Kind, st.Detections, st.Recovered, st.FalsePositives, st.FaultFreeRuns)
		}
	}
	if sr := rep.Sampling; sr != nil {
		fmt.Printf("sampling:      fault space %d → executed %d (pruned %d analytic, skipped %d)\n",
			sr.FaultSpace(), sr.ExecutedTotal(), sr.PrunedTotal(), sr.SkippedTotal())
		fmt.Printf("SDC estimate:  %.4f ± %.4f (95%% CI)\n", sr.SDCRate(), sr.CIHalfWidth())
		if sr.StopIndex > 0 {
			fmt.Printf("early stop:    CI target reached at fault-space index %d of %d\n",
				sr.StopIndex, cfg.Injections)
		}
	}
	if rep.Interrupted {
		fmt.Fprintln(os.Stderr, "goldeneye: campaign interrupted; the report covers the completed injections")
	}
}

// runFleetInject shards the campaign across a fleet of goldeneyed daemons
// through an in-process coordinator and prints the merged report, which is
// byte-identical to a single-node run at workers equal to the shard count.
// Node failures are survived as long as -fleet-min nodes stay healthy; a
// degraded completion is flagged on stderr.
func runFleetInject(ctx context.Context, urls, model string, samples, batch, shards, minNodes int, cfg goldeneye.CampaignConfig, showProgress bool) error {
	var addrs []string
	for _, a := range strings.Split(urls, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if samples > 0 && batch > samples {
		batch = samples
	}
	spec := &server.JobSpec{
		Model:     model,
		Samples:   samples,
		EvalBatch: batch,
		Campaign:  cfg,
	}
	co, err := fleet.New(addrs, fleet.Options{
		Shards:   shards,
		MinNodes: minNodes,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	var onProgress func(done, total int)
	if showProgress {
		onProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rinject %d/%d across %d nodes", done, total, len(addrs))
		}
	}
	rep, err := co.Run(ctx, spec, onProgress)
	if showProgress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		var insuff *fleet.InsufficientFleetError
		if errors.As(err, &insuff) {
			fmt.Fprintf(os.Stderr, "goldeneye: fleet collapsed below %d healthy nodes; %d shard reports completed before the failure\n",
				insuff.Min, len(insuff.Completed))
		}
		return err
	}
	if rep.Degraded {
		fmt.Fprintf(os.Stderr, "goldeneye: fleet finished DEGRADED (lost nodes: %s); the report is still exact\n",
			strings.Join(rep.Stats.NodesLost, ", "))
	}
	if rep.Stats.Reassigned > 0 || rep.Stats.Stolen > 0 || rep.Stats.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "fleet recovery: %d shards reassigned, %d stolen, %d replayed idempotently\n",
			rep.Stats.Reassigned, rep.Stats.Stolen, rep.Stats.Replayed)
	}
	printInjectReport(model, rep.CampaignReport)
	return nil
}

// runRemoteInject submits the campaign to a goldeneyed daemon, follows its
// SSE progress stream, and prints the final report. SIGINT cancels the
// remote job before returning, so an interrupted submission doesn't leave
// the daemon running an orphan campaign.
func runRemoteInject(ctx context.Context, base, model string, samples, batch, workers int, deadline time.Duration, cfg goldeneye.CampaignConfig, showProgress bool) error {
	if samples > 0 && batch > samples {
		batch = samples // same clamp the local path applies to its pool
	}
	spec := &server.JobSpec{
		Model:           model,
		Samples:         samples,
		EvalBatch:       batch,
		Workers:         workers,
		DeadlineSeconds: deadline.Seconds(),
		Campaign:        cfg,
	}
	c := client.New(base)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if st.State == server.JobDone {
		rep, rerr := c.Report(ctx, st.ID)
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(os.Stderr, "job %s served from %s cache\n", st.ID, base)
		printInjectReport(model, rep)
		return nil
	}
	fmt.Fprintf(os.Stderr, "submitted job %s to %s\n", st.ID, base)

	var onProgress func(server.JobStatus)
	if showProgress {
		onProgress = func(p server.JobStatus) {
			fmt.Fprintf(os.Stderr, "\rinject %d/%d (%s) mismatches=%d detected=%d",
				p.Done, p.Total, p.State, p.Mismatches, p.Detected)
		}
	}
	rep, err := c.Stream(ctx, st.ID, onProgress)
	if showProgress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Local interrupt: stop the remote job too, off the dying ctx.
			cancelCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if cerr := c.Cancel(cancelCtx, st.ID); cerr == nil {
				fmt.Fprintf(os.Stderr, "goldeneye: interrupted; cancelled remote job %s\n", st.ID)
			}
		}
		return err
	}
	printInjectReport(model, rep)
	return nil
}
