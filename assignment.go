package goldeneye

import (
	"fmt"
	"sort"
	"strings"

	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// RoleFormats bundles the number formats one layer runs its three tensor
// roles in — the mixed-precision triple modern accelerators expose (bf16
// weights × fp8 activations × fp32 accumulate). A nil role means native
// float32 for that role.
type RoleFormats struct {
	// Weights is the format the layer's parameters (weight and bias) are
	// quantized to before the run. Unlike FormatAssignment.Params — which
	// converts every model parameter — a weights role converts only the
	// parameters of the layers it is assigned to.
	Weights numfmt.Format

	// Activations is the format the layer's outputs are emulated in during
	// every forward pass.
	Activations numfmt.Format

	// Accumulator is the format the layer's GEMM partial sums are
	// accumulated in: every multiply-accumulate step (and the bias add)
	// rounds through it. Only metadata-free formats qualify — per-tensor
	// scales and shared exponents are derived from completed tensors and
	// cannot exist mid-reduction; FormatAssignment.Validate enforces this.
	// Accumulator-site faults (SiteAccum) flip bits in this format's
	// encoding of the partial sum.
	Accumulator numfmt.Format
}

// Empty reports whether no role carries a format.
func (r RoleFormats) Empty() bool {
	return r.Weights == nil && r.Activations == nil && r.Accumulator == nil
}

// Canonical renders the roles in ParseRoleFormats syntax, stable field
// order, for hashing and display.
func (r RoleFormats) Canonical() string {
	var parts []string
	if r.Weights != nil {
		parts = append(parts, "w:"+r.Weights.Name())
	}
	if r.Activations != nil {
		parts = append(parts, "a:"+r.Activations.Name())
	}
	if r.Accumulator != nil {
		parts = append(parts, "acc:"+r.Accumulator.Name())
	}
	return strings.Join(parts, ",")
}

// FormatAssignment maps layers to per-role number formats — the one
// surface that says which formats a network runs in, from a uniform
// network (Params and Default in one format) to full mixed precision.
//
// Scope rules: Params converts every non-frozen model parameter; Default
// applies to every CONV and LINEAR layer (nn.DefaultLayers); a PerLayer
// entry replaces Default wholesale at exactly its layer visit index,
// regardless of kind. An absent role means native float32 for that role
// at that layer.
type FormatAssignment struct {
	// Params is the format every non-frozen model parameter is converted
	// to before the run — normalization scale and shift included, the
	// paper's offline weight conversion (§V-B). Weights roles apply after
	// it, to the parameters of the layers they are assigned to.
	Params numfmt.Format

	// Default is the role triple applied to layers without a PerLayer
	// entry.
	Default RoleFormats

	// PerLayer overrides Default at specific layer visit indices (see
	// Simulator.Layers). An entry overrides all three roles: roles it
	// leaves nil run native float32 even when Default assigns them.
	PerLayer map[int]RoleFormats
}

// rolesFor resolves the roles in effect at a layer visit, honoring
// Default's kind scope: PerLayer entries apply at exactly their index,
// Default only at CONV and LINEAR layers.
func (a *FormatAssignment) rolesFor(info nn.LayerInfo) RoleFormats {
	if a == nil {
		return RoleFormats{}
	}
	if rf, ok := a.PerLayer[info.Index]; ok {
		return rf
	}
	if !nn.DefaultLayers().Matches(info) {
		return RoleFormats{}
	}
	return a.Default
}

// Empty reports whether the assignment carries no formats at all.
func (a *FormatAssignment) Empty() bool {
	return !a.hasWeights() && !a.hasActivations() && !a.hasAccumulator()
}

// hasActivations reports whether any layer is assigned an activation
// format.
func (a *FormatAssignment) hasActivations() bool {
	return a.assigns(func(r RoleFormats) numfmt.Format { return r.Activations })
}

// hasWeights reports whether any parameter is assigned a format, through
// Params or a weights role.
func (a *FormatAssignment) hasWeights() bool {
	return a != nil && a.Params != nil || a.assigns(func(r RoleFormats) numfmt.Format { return r.Weights })
}

// hasAccumulator reports whether any layer is assigned an accumulator
// format.
func (a *FormatAssignment) hasAccumulator() bool {
	return a.assigns(func(r RoleFormats) numfmt.Format { return r.Accumulator })
}

// assigns reports whether Default or any PerLayer entry sets the role that
// role selects.
func (a *FormatAssignment) assigns(role func(RoleFormats) numfmt.Format) bool {
	if a == nil {
		return false
	}
	if role(a.Default) != nil {
		return true
	}
	for _, rf := range a.PerLayer {
		if role(rf) != nil {
			return true
		}
	}
	return false
}

// sortedLayers returns the PerLayer keys in ascending order.
func (a *FormatAssignment) sortedLayers() []int {
	keys := make([]int, 0, len(a.PerLayer))
	for k := range a.PerLayer {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Canonical renders the assignment in ParseFormatMap syntax with a stable
// field and layer order — the deterministic fingerprint experiment cell
// hashes and cache keys use. Params leads the default segment as "p:" when
// set. A nil assignment renders empty.
func (a *FormatAssignment) Canonical() string {
	if a == nil {
		return ""
	}
	var sb strings.Builder
	if a.Params != nil {
		sb.WriteString("p:" + a.Params.Name())
		if !a.Default.Empty() {
			sb.WriteString(",")
		}
	}
	sb.WriteString(a.Default.Canonical())
	for _, k := range a.sortedLayers() {
		if sb.Len() > 0 {
			sb.WriteString(";")
		}
		fmt.Fprintf(&sb, "%d=%s", k, a.PerLayer[k].Canonical())
	}
	return sb.String()
}

// String returns the canonical rendering.
func (a *FormatAssignment) String() string { return a.Canonical() }

// Validate checks the assignment's structural rules: it must assign at
// least one format, layer indices must be non-negative, and every
// accumulator role must be a metadata-free format (a scale or shared
// exponent register cannot be maintained mid-reduction). Violations come
// back as *ConfigError.
func (a *FormatAssignment) Validate() error {
	if a.Empty() {
		return &ConfigError{Field: "Assignment", Reason: "format assignment carries no formats"}
	}
	check := func(where string, rf RoleFormats) error {
		if rf.Accumulator != nil && inject.MetaBitWidth(rf.Accumulator) != 0 {
			return configErrf("Assignment",
				"%s accumulator format %s carries hardware metadata; accumulator registers need a metadata-free format",
				where, rf.Accumulator.Name())
		}
		return nil
	}
	if err := check("default", a.Default); err != nil {
		return err
	}
	for _, k := range a.sortedLayers() {
		if k < 0 {
			return configErrf("Assignment", "per-layer index %d is negative", k)
		}
		if err := check(fmt.Sprintf("layer %d", k), a.PerLayer[k]); err != nil {
			return err
		}
	}
	return nil
}

// ParseRoleFormats parses one role triple of the CLIs' -format-map syntax:
// comma-separated role:format pairs, e.g. "w:bf16,a:fp8_e4m3,acc:fp32".
// Role keys are w/weights, a/act/activations, and acc/accum/accumulator;
// formats are anything ParseFormat accepts. Roles left out stay native
// float32.
func ParseRoleFormats(spec string) (RoleFormats, error) { return parseRoles(spec, nil) }

// parseRoles parses a role list. With a non-nil params it also accepts the
// network-wide p/params key (FormatAssignment.Params), which only a format
// map's default segment may carry.
func parseRoles(spec string, params *numfmt.Format) (RoleFormats, error) {
	var rf RoleFormats
	if strings.TrimSpace(spec) == "" {
		return rf, fmt.Errorf("goldeneye: empty role list in format map")
	}
	for _, pair := range strings.Split(spec, ",") {
		key, name, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return rf, fmt.Errorf("goldeneye: format-map entry %q is not role:format", pair)
		}
		f, err := ParseFormat(strings.TrimSpace(name))
		if err != nil {
			return rf, err
		}
		switch strings.TrimSpace(key) {
		case "w", "weights":
			rf.Weights = f
		case "a", "act", "activations":
			rf.Activations = f
		case "acc", "accum", "accumulator":
			rf.Accumulator = f
		case "p", "params":
			if params == nil {
				return rf, fmt.Errorf("goldeneye: role %q converts every parameter; only the default format-map segment may set it", key)
			}
			*params = f
		default:
			return rf, fmt.Errorf("goldeneye: unknown role %q in format map (want w, a, or acc)", key)
		}
	}
	return rf, nil
}

// ParseFormatMap parses the CLIs' -format-map specification into a
// FormatAssignment: semicolon-separated segments, where a bare role list
// sets the default and "layer=roles" segments override single layers. The
// default list may also carry p:<format>, which sets Params.
//
//	w:bf16,a:fp8_e4m3,acc:fp32          uniform mixed-precision default
//	w:fp16;4=w:fp8_e4m3,acc:fp32        fp16 weights, layer 4 overridden
//	3=a:fp16                            layer 3 only, no default
//	p:int8,a:int8                       a network running in int8
//
// The returned assignment is validated (see FormatAssignment.Validate).
func ParseFormatMap(spec string) (*FormatAssignment, error) {
	asg := &FormatAssignment{}
	for i, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("goldeneye: empty segment in format map %q", spec)
		}
		layerPart, rolePart, hasLayer := strings.Cut(seg, "=")
		if !hasLayer {
			if i != 0 {
				return nil, fmt.Errorf("goldeneye: default roles %q must be the first format-map segment", seg)
			}
			rf, err := parseRoles(seg, &asg.Params)
			if err != nil {
				return nil, err
			}
			asg.Default = rf
			continue
		}
		var layer int
		if _, err := fmt.Sscanf(strings.TrimSpace(layerPart), "%d", &layer); err != nil {
			return nil, fmt.Errorf("goldeneye: format-map segment %q: layer index %q is not a number", seg, layerPart)
		}
		if layer < 0 {
			return nil, fmt.Errorf("goldeneye: format-map layer index %d is negative", layer)
		}
		rf, err := ParseRoleFormats(rolePart)
		if err != nil {
			return nil, err
		}
		if asg.PerLayer == nil {
			asg.PerLayer = make(map[int]RoleFormats)
		}
		if _, dup := asg.PerLayer[layer]; dup {
			return nil, fmt.Errorf("goldeneye: format map assigns layer %d twice", layer)
		}
		asg.PerLayer[layer] = rf
	}
	if err := asg.Validate(); err != nil {
		return nil, err
	}
	return asg, nil
}

// emulationHooks assembles asg's emulation hooks for a pass over n
// samples: activation hooks carrying each format's fused-kernel epilogue,
// so Conv2D/Linear emulate their outputs while cache-hot, plus
// accumulator-format rounding of every GEMM partial sum. Activation
// metadata — INT scale, AFP bias, BFP shared exponents — is computed per
// sample, so each sample stays bit-identical to its one-sample pass;
// accumulator rounding is per element and needs no sample count.
func emulationHooks(asg *FormatAssignment, n int) *nn.HookSet {
	h := nn.NewHookSet()
	addActivationHooks(h, asg, n)
	addAccumHooks(h, asg)
	return h
}

// addActivationHooks registers asg's activation emulation for a pass over
// n samples on h: one dynamic hook whose format (and fused-kernel
// epilogue) resolves per layer visit, deriving each sample's metadata from
// that sample alone (n = 1: from the whole tensor).
func addActivationHooks(h *nn.HookSet, asg *FormatAssignment, n int) {
	if !asg.hasActivations() {
		return
	}
	// Epilogues are stateless per format; cache them so repeated visits of
	// the same format reuse one closure set.
	eps := make(map[numfmt.Format]tensor.Epilogue)
	resolve := func(info nn.LayerInfo) numfmt.Format {
		return asg.rolesFor(info).Activations
	}
	h.PostForwardEpilogueBy(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		f := resolve(info)
		if f == nil {
			return t
		}
		return numfmt.EmulateBatched(f, t, n)
	}, func(info nn.LayerInfo) tensor.Epilogue {
		f := resolve(info)
		if f == nil {
			return tensor.Epilogue{}
		}
		ep, ok := eps[f]
		if !ok {
			ep = numfmt.EmulateEpilogue(f, n)
			eps[f] = ep
		}
		return ep
	})
}

// addAccumHooks registers asg's accumulator-format emulation on h: every
// GEMM-backed layer with an assigned accumulator format rounds each partial
// sum through it (see numfmt.AccumRounding). Layers without a GEMM ignore
// the spec. The roundings are cached per format and shared across visits;
// they are stateless, so reuse is safe.
func addAccumHooks(h *nn.HookSet, asg *FormatAssignment) {
	if !asg.hasAccumulator() {
		return
	}
	quants := make(map[numfmt.Format]tensor.Rounding)
	h.Accum(nn.AllLayers(), func(info nn.LayerInfo) nn.AccumSpec {
		f := asg.rolesFor(info).Accumulator
		if f == nil {
			return nn.AccumSpec{}
		}
		q, ok := quants[f]
		if !ok {
			q = numfmt.AccumRounding(f)
			quants[f] = q
		}
		return nn.AccumSpec{Quant: q}
	})
}

// applyWeightAssignment performs asg's offline weight conversion: every
// non-frozen model parameter to Params, then each traced layer's own
// parameters (weight and bias) to its assigned weights format. It is the
// one place a campaign or an emulated evaluation converts weights; callers
// hold a WeightBackup and restore it afterwards.
func (s *Simulator) applyWeightAssignment(asg *FormatAssignment) {
	if !asg.hasWeights() {
		return
	}
	if asg.Params != nil {
		inject.QuantizeWeights(s.model, asg.Params)
	}
	for _, l := range s.layers {
		f := asg.rolesFor(l).Weights
		if f == nil {
			continue
		}
		if mod := s.modules[l.Index]; mod != nil {
			inject.QuantizeWeights(mod, f)
		}
	}
}
