package goldeneye

import (
	"bytes"
	"encoding/json"
	"fmt"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/sampling"
)

// ConfigSchemaVersion is the newest schema version of the JSON encodings of
// CampaignConfig and CampaignReport. Decoders accept any version up to the
// current one and reject newer documents, so a daemon never silently
// misreads a job submitted by a newer client.
//
// Version history:
//
//	v1 — the original uniform-format encoding: a "format" plus the
//	     "emulate_network" and "quantize_weights" flags. The flags have no
//	     Go field; they are the wire spelling of a legacy-shaped
//	     assignment (see LegacyFlags). The decoder lowers them into the
//	     assignment they stand for — Default activations and Params in the
//	     document's format — when the document carries no assignment (with
//	     one, they were never honored and are dropped). The encoder spells
//	     every legacy-shaped configuration this way, under whatever version
//	     its other features need, so a config written either way encodes —
//	     and hashes — as one campaign.
//	v2 — adds the per-layer "assignment" map and the "accum" injection
//	     site. Documents that use neither are stamped (and decoded as) v1,
//	     so every pre-existing configuration keeps its exact v1 bytes.
//	     v2 documents are decoded strictly: unknown fields are rejected.
//	v3 — adds the "shard_index"/"shard_count" pair that marks one
//	     deterministic stride shard of a distributed campaign. Unsharded
//	     configurations never stamp v3 (or emit the fields), so every
//	     pre-existing encoding keeps its exact bytes — a merged fleet
//	     report is indistinguishable from a single-node one on the wire.
//	     Decoded strictly, like v2.
//	v4 — adds the "sampling" plan (configs) and the stratified estimator
//	     "sampling" report (see internal/sampling). Exhaustive campaigns —
//	     including ones whose inert fraction-1.0 plan was normalized away —
//	     never stamp v4 or emit either field, so every pre-existing
//	     encoding keeps its exact bytes. Decoded strictly, like v2.
//	v5 — adds "params" (FormatAssignment.Params) inside the "assignment"
//	     object, for assignments that are not legacy-shaped. Legacy-shaped
//	     ones keep their v1 spelling, so no earlier document changes
//	     bytes. Decoded strictly, like v2.
const ConfigSchemaVersion = 5

// LegacyFlags reports whether the configuration has the legacy uniform
// shape — a Format, and an assignment that at most emulates Default
// activations and converts Params, each in that Format — and, if so, the
// emulate_network and quantize_weights flags the v1 wire spelling records
// for it. A nil assignment is legacy-shaped with both flags false.
//
// The wire encoder and the experiment cell hash both key legacy-shaped
// configurations on these flags instead of the assignment, so every
// document, checkpoint hash and cache key written before assignments
// existed keeps its bytes, and the two spellings of one campaign share
// them.
func (c CampaignConfig) LegacyFlags() (emulateNetwork, quantizeWeights, ok bool) {
	if c.Format == nil {
		return false, false, false
	}
	a := c.Assignment
	if a == nil {
		return false, false, true
	}
	if len(a.PerLayer) > 0 || a.Default.Weights != nil || a.Default.Accumulator != nil {
		return false, false, false
	}
	inFormat := func(f Format) bool { return f == nil || f.Name() == c.Format.Name() }
	if !inFormat(a.Default.Activations) || !inFormat(a.Params) {
		return false, false, false
	}
	return a.Default.Activations != nil, a.Params != nil, true
}

// wireAssignment returns the assignment the wire spells as an "assignment"
// object: nil for legacy-shaped configurations, which travel as flags.
func (c CampaignConfig) wireAssignment() *FormatAssignment {
	if _, _, legacy := c.LegacyFlags(); legacy {
		return nil
	}
	return c.Assignment
}

// wireVersion returns the schema version a configuration actually needs:
// v1 unless it uses a newer feature. Stamping the minimum keeps legacy
// encodings byte-identical and lets older consumers keep reading them.
func (c CampaignConfig) wireVersion() int {
	asg := c.wireAssignment()
	switch {
	case asg != nil && asg.Params != nil:
		return 5
	case c.Sampling.Active():
		return 4
	case c.ShardCount > 1:
		return 3
	case asg != nil || c.Site == inject.SiteAccum:
		return 2
	}
	return 1
}

// detectorJSON is the wire shape of one detector declaration. Only the
// declarative fields travel: a Spec's New is code, which does not belong on
// the network.
type detectorJSON struct {
	Kind   string  `json:"kind"`
	Margin float64 `json:"margin,omitempty"`
}

// campaignConfigJSON is the stable wire shape of a CampaignConfig. The
// runtime-only fields — Pool (tensor data the consumer attaches), Metrics,
// Resume, Progress — are deliberately excluded, so encode→decode→encode is
// byte-identical and a config can travel between processes. EmulateNetwork
// and QuantizeWeights are the v1 spelling of a legacy-shaped assignment
// (see CampaignConfig.LegacyFlags); no Go field carries them.
type campaignConfigJSON struct {
	Version           int             `json:"version"`
	Format            string          `json:"format,omitempty"`
	Assignment        *assignmentJSON `json:"assignment,omitempty"`
	Site              string          `json:"site,omitempty"`
	Target            string          `json:"target,omitempty"`
	FaultKind         string          `json:"fault_kind,omitempty"`
	Layer             int             `json:"layer"`
	Injections        int             `json:"injections"`
	FlipsPerInjection int             `json:"flips_per_injection,omitempty"`
	Seed              uint64          `json:"seed"`
	ShardIndex        int             `json:"shard_index,omitempty"`
	ShardCount        int             `json:"shard_count,omitempty"`
	BatchSize         int             `json:"batch_size,omitempty"`
	UseRanger         bool            `json:"use_ranger,omitempty"`
	EmulateNetwork    bool            `json:"emulate_network,omitempty"`
	QuantizeWeights   bool            `json:"quantize_weights,omitempty"`
	KeepTrace         bool            `json:"keep_trace,omitempty"`
	MeasureDMR        bool            `json:"measure_dmr,omitempty"`
	MaxAborts         int             `json:"max_aborts,omitempty"`
	Detectors         []detectorJSON  `json:"detectors,omitempty"`
	Recovery          string          `json:"recovery,omitempty"`
	Sampling          *sampling.Plan  `json:"sampling,omitempty"`
}

// roleFormatsJSON is the wire shape of one RoleFormats triple: each role
// travels as its ParseFormat-compatible name, absent roles are omitted.
type roleFormatsJSON struct {
	Weights     string `json:"weights,omitempty"`
	Activations string `json:"activations,omitempty"`
	Accumulator string `json:"accumulator,omitempty"`
}

// formatName is a format's wire spelling: its ParseFormat-compatible name,
// or "" for nil.
func formatName(f Format) string {
	if f == nil {
		return ""
	}
	return f.Name()
}

// parseFormatName inverts formatName.
func parseFormatName(name string) (Format, error) {
	if name == "" {
		return nil, nil
	}
	return ParseFormat(name)
}

func roleFormatsToJSON(r RoleFormats) roleFormatsJSON {
	return roleFormatsJSON{
		Weights:     formatName(r.Weights),
		Activations: formatName(r.Activations),
		Accumulator: formatName(r.Accumulator),
	}
}

func (w roleFormatsJSON) roles() (r RoleFormats, err error) {
	if r.Weights, err = parseFormatName(w.Weights); err != nil {
		return r, err
	}
	if r.Activations, err = parseFormatName(w.Activations); err != nil {
		return r, err
	}
	r.Accumulator, err = parseFormatName(w.Accumulator)
	return r, err
}

// assignmentJSON is the wire shape of a FormatAssignment (schema v2; Params
// since v5). Integer-keyed maps marshal with deterministically ordered
// keys, so encode→decode→encode stays byte-identical.
type assignmentJSON struct {
	Params   string                  `json:"params,omitempty"`
	Default  roleFormatsJSON         `json:"default"`
	PerLayer map[int]roleFormatsJSON `json:"per_layer,omitempty"`
}

func assignmentToJSON(a *FormatAssignment) *assignmentJSON {
	if a == nil {
		return nil
	}
	w := &assignmentJSON{Params: formatName(a.Params), Default: roleFormatsToJSON(a.Default)}
	if len(a.PerLayer) > 0 {
		w.PerLayer = make(map[int]roleFormatsJSON, len(a.PerLayer))
		for k, rf := range a.PerLayer {
			w.PerLayer[k] = roleFormatsToJSON(rf)
		}
	}
	return w
}

func (w *assignmentJSON) assignment() (*FormatAssignment, error) {
	if w == nil {
		return nil, nil
	}
	a := &FormatAssignment{}
	var err error
	if a.Params, err = parseFormatName(w.Params); err != nil {
		return nil, err
	}
	if a.Default, err = w.Default.roles(); err != nil {
		return nil, err
	}
	if len(w.PerLayer) > 0 {
		a.PerLayer = make(map[int]RoleFormats, len(w.PerLayer))
		for k, rw := range w.PerLayer {
			if a.PerLayer[k], err = rw.roles(); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// MarshalJSON encodes the campaign configuration in its stable, versioned
// wire shape. The format travels as its ParseFormat-compatible name, sites
// and targets as their flag spellings, a legacy-shaped assignment as the v1
// flags (see LegacyFlags). Configurations carrying a custom detector
// factory (Spec.New) cannot be serialized.
func (c CampaignConfig) MarshalJSON() ([]byte, error) {
	emulate, quantize, _ := c.LegacyFlags()
	w := campaignConfigJSON{
		Version:           c.wireVersion(),
		Format:            formatName(c.Format),
		Assignment:        assignmentToJSON(c.wireAssignment()),
		Layer:             c.Layer,
		Injections:        c.Injections,
		FlipsPerInjection: c.FlipsPerInjection,
		Seed:              c.Seed,
		BatchSize:         c.BatchSize,
		UseRanger:         c.UseRanger,
		EmulateNetwork:    emulate,
		QuantizeWeights:   quantize,
		KeepTrace:         c.KeepTrace,
		MeasureDMR:        c.MeasureDMR,
		MaxAborts:         c.MaxAborts,
	}
	if c.Site != 0 {
		w.Site = c.Site.String()
	}
	if c.Target != 0 {
		w.Target = c.Target.String()
	}
	if c.FaultKind != inject.KindFlip {
		w.FaultKind = c.FaultKind.String()
	}
	if c.ShardCount > 1 {
		// Stamped only when actually sharded, so unsharded configurations —
		// including merged fleet reports, whose shard fields are cleared —
		// keep their pre-v3 bytes.
		w.ShardIndex = c.ShardIndex
		w.ShardCount = c.ShardCount
	}
	for _, d := range c.Detectors {
		if d.New != nil {
			return nil, fmt.Errorf("goldeneye: detector with a custom factory is not serializable")
		}
		w.Detectors = append(w.Detectors, detectorJSON{Kind: d.Kind, Margin: d.Margin})
	}
	if c.Recovery != detect.PolicyNone {
		w.Recovery = c.Recovery.String()
	}
	if c.Sampling.Active() {
		// Emitted only when the plan changes behaviour, so configurations
		// carrying an inert (or no) plan keep their pre-v4 bytes.
		w.Sampling = c.Sampling
	}
	return json.Marshal(w)
}

// wireProbe extracts just the version stamp of a wire document, so the
// decoder can pick the strictness matching the document's own schema.
type wireProbe struct {
	Version int `json:"version"`
}

// decodeVersioned unmarshals a versioned wire document into dst. Documents
// stamped v2 or newer decode strictly (unknown fields are an error, so a
// typo'd or half-migrated job config fails loudly); v1 documents keep the
// lenient decoding they have always had. Newer-than-supported versions are
// rejected with kind in the message.
func decodeVersioned(data []byte, dst interface{}, kind string) (int, error) {
	var probe wireProbe
	if err := json.Unmarshal(data, &probe); err != nil {
		return 0, err
	}
	if probe.Version > ConfigSchemaVersion {
		return 0, fmt.Errorf("goldeneye: campaign %s schema v%d is newer than supported v%d",
			kind, probe.Version, ConfigSchemaVersion)
	}
	if probe.Version >= 2 {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return probe.Version, dec.Decode(dst)
	}
	return probe.Version, json.Unmarshal(data, dst)
}

// UnmarshalJSON decodes a configuration encoded by MarshalJSON, parsing the
// format specification and detector declarations back into live values, and
// lowering the v1 emulate_network/quantize_weights flags into the
// assignment they stand for. The runtime-only fields (Pool, Metrics,
// Resume, Progress) come back zero; the consumer attaches them. Documents
// stamped with a newer schema version are rejected; v2 documents are
// decoded strictly (see decodeVersioned).
func (c *CampaignConfig) UnmarshalJSON(data []byte) error {
	var w campaignConfigJSON
	if _, err := decodeVersioned(data, &w, "config"); err != nil {
		return err
	}
	out := CampaignConfig{
		Layer:             w.Layer,
		Injections:        w.Injections,
		FlipsPerInjection: w.FlipsPerInjection,
		Seed:              w.Seed,
		ShardIndex:        w.ShardIndex,
		ShardCount:        w.ShardCount,
		BatchSize:         w.BatchSize,
		UseRanger:         w.UseRanger,
		KeepTrace:         w.KeepTrace,
		MeasureDMR:        w.MeasureDMR,
		MaxAborts:         w.MaxAborts,
	}
	var err error
	if out.Format, err = parseFormatName(w.Format); err != nil {
		return err
	}
	if out.Assignment, err = w.Assignment.assignment(); err != nil {
		return err
	}
	if out.Assignment == nil && out.Format != nil && (w.EmulateNetwork || w.QuantizeWeights) {
		out.Assignment = &FormatAssignment{}
		if w.EmulateNetwork {
			out.Assignment.Default.Activations = out.Format
		}
		if w.QuantizeWeights {
			out.Assignment.Params = out.Format
		}
	}
	// An absent site or target decodes to the zero value, matching the Go
	// zero value of an unset config.
	if w.Site != "" {
		if out.Site, err = inject.ParseSite(w.Site); err != nil {
			return err
		}
	}
	if w.Target != "" {
		if out.Target, err = inject.ParseTarget(w.Target); err != nil {
			return err
		}
	}
	if out.FaultKind, err = parseFaultKind(w.FaultKind); err != nil {
		return err
	}
	for _, d := range w.Detectors {
		specs, serr := detect.ParseSpecs(d.Kind)
		if serr != nil {
			return serr
		}
		if len(specs) != 1 {
			return fmt.Errorf("goldeneye: empty detector kind in campaign config")
		}
		specs[0].Margin = d.Margin
		out.Detectors = append(out.Detectors, specs[0])
	}
	if w.Recovery != "" {
		if out.Recovery, err = detect.ParsePolicy(w.Recovery); err != nil {
			return err
		}
	}
	out.Sampling = w.Sampling
	*c = out
	return nil
}

// parseFaultKind maps a wire error-model spelling back to its value; both
// "" and "flip" decode to the default transient flip.
func parseFaultKind(s string) (inject.FaultKind, error) {
	switch s {
	case "", "flip":
		return inject.KindFlip, nil
	case "stuck-at-0":
		return inject.KindStuckAt0, nil
	case "stuck-at-1":
		return inject.KindStuckAt1, nil
	case "burst":
		return inject.KindBurst, nil
	default:
		return 0, fmt.Errorf("goldeneye: unknown fault kind %q", s)
	}
}

// campaignReportJSON is the stable wire shape of a CampaignReport, with the
// embedded aggregate flattened into an explicit field so the encoding
// cannot drift when the struct grows.
type campaignReportJSON struct {
	Version     int                              `json:"version"`
	Result      metrics.CampaignResult           `json:"result"`
	Config      CampaignConfig                   `json:"config"`
	Trace       []InjectionOutcome               `json:"trace,omitempty"`
	Detected    int                              `json:"detected"`
	Recovered   int                              `json:"recovered,omitempty"`
	PerDetector map[string]metrics.DetectorStats `json:"per_detector,omitempty"`
	Aborted     int                              `json:"aborted,omitempty"`
	Interrupted bool                             `json:"interrupted,omitempty"`
	Sampling    *sampling.Report                 `json:"sampling,omitempty"`
}

// MarshalJSON encodes the report in its stable, versioned wire shape. The
// Welford accumulators serialize bit-exactly (see metrics.RunningStat), so
// a report survives the network byte-identically — the campaign service
// relies on this for its remote-equals-local guarantee.
func (r CampaignReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(campaignReportJSON{
		Version:     r.Config.wireVersion(),
		Result:      r.CampaignResult,
		Config:      r.Config,
		Trace:       r.Trace,
		Detected:    r.Detected,
		Recovered:   r.Recovered,
		PerDetector: r.PerDetector,
		Aborted:     r.Aborted,
		Interrupted: r.Interrupted,
		Sampling:    r.Sampling,
	})
}

// UnmarshalJSON decodes a report encoded by MarshalJSON, rejecting
// documents stamped with a newer schema version; v2 documents are decoded
// strictly (see decodeVersioned).
func (r *CampaignReport) UnmarshalJSON(data []byte) error {
	var w campaignReportJSON
	if _, err := decodeVersioned(data, &w, "report"); err != nil {
		return err
	}
	*r = CampaignReport{
		CampaignResult: w.Result,
		Config:         w.Config,
		Trace:          w.Trace,
		Detected:       w.Detected,
		Recovered:      w.Recovered,
		PerDetector:    w.PerDetector,
		Aborted:        w.Aborted,
		Interrupted:    w.Interrupted,
		Sampling:       w.Sampling,
	}
	return nil
}
