package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestParamsTypedGetters exercises both getters: a present knob, the
// whole-number reads IntOr takes, and defaults.
func TestParamsTypedGetters(t *testing.T) {
	p := Params{"f": 2.5, "i": 4, "neg": -3, "big": 1 << 52}

	if v := p.FloatOr("f", 9); v != 2.5 {
		t.Errorf("FloatOr(f) = %v (default must not shadow)", v)
	}
	if v := p.FloatOr("i", 9); v != 4 {
		t.Errorf("FloatOr(i) = %v", v)
	}
	for name, want := range map[string]int{"i": 4, "neg": -3, "big": 1 << 52} {
		if v, err := p.IntOr(name, 7); err != nil || v != want {
			t.Errorf("IntOr(%s) = %v, %v, want %d", name, v, err, want)
		}
	}

	// Both fall back only when the knob is absent.
	if v := p.FloatOr("absent", 7.5); v != 7.5 {
		t.Errorf("FloatOr default = %v", v)
	}
	if v, err := p.IntOr("absent", 7); err != nil || v != 7 {
		t.Errorf("IntOr default = %v, %v", v, err)
	}

	// Nil bags behave as empty.
	var nilBag Params
	if v, err := nilBag.IntOr("x", 11); err != nil || v != 11 {
		t.Errorf("nil bag IntOr = %v, %v", v, err)
	}
	if v := nilBag.FloatOr("x", 0.5); v != 0.5 {
		t.Errorf("nil bag FloatOr = %v", v)
	}
}

// TestParamsTypeErrors checks IntOr refuses every number a count cannot
// take with a ParamError naming the knob, and returns the default
// alongside it: a default never masks a malformed value.
func TestParamsTypeErrors(t *testing.T) {
	for name, v := range map[string]float64{
		"frac":     2.5, // must not truncate to 2
		"tiny":     1e-300,
		"nan":      math.NaN(),
		"inf":      math.Inf(1),
		"neginf":   math.Inf(-1),
		"too-big":  1 << 63, // one past MaxInt64
		"huge":     1e300,
		"too-neg":  -1e19,
		"negfrac":  -0.5,
		"halfway":  4503599627370495.5, // 2^52 - 0.5
		"smallest": math.SmallestNonzeroFloat64,
	} {
		p := Params{name: v}
		got, err := p.IntOr(name, 6)
		if got != 6 {
			t.Errorf("IntOr(%s = %v) returned %d, want the default", name, v, got)
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("IntOr(%s = %v): error %v is not a ParamError", name, v, err)
			continue
		}
		if pe.Name != name || pe.Want != "an int" {
			t.Errorf("%s: ParamError %+v", name, pe)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: message %q does not name the knob", name, err)
		}
	}
	// The extremes int holds are whole numbers, not errors.
	if v, err := (Params{"min": math.MinInt}).IntOr("min", 0); err != nil || v != math.MinInt {
		t.Errorf("IntOr(MinInt) = %v, %v", v, err)
	}
}

// TestParamsMerge checks the preset-overlay semantics: the overlay
// wins, inputs are untouched, and empty sides short-circuit.
func TestParamsMerge(t *testing.T) {
	base := Params{"a": 1, "b": 2}
	over := Params{"b": 20, "c": 30}
	m := base.Merge(over)
	if m["a"] != 1 {
		t.Error("merge lost a base key")
	}
	if m["b"] != 20 {
		t.Error("overlay did not win")
	}
	if m["c"] != 30 {
		t.Error("merge lost an overlay key")
	}
	if base["b"] != 2 {
		t.Error("merge mutated the base bag")
	}
	if got := base.Merge(nil); len(got) != 2 {
		t.Error("empty overlay should return base")
	}
	// A non-empty overlay is never returned by reference: the overlay
	// is a registered preset's bag, and aliasing it would let callers
	// mutating World.Cfg.Params corrupt the preset process-wide.
	got := Params(nil).Merge(over)
	if len(got) != 2 {
		t.Error("empty base should produce the overlay's content")
	}
	got["b"] = 99
	if over["b"] != 20 {
		t.Error("merge aliased the overlay bag")
	}
}

// TestBuilderParamGettersAccumulate checks the WorldBuilder getters
// return defaults on bad input while recording the error for Build to
// surface.
func TestBuilderParamGettersAccumulate(t *testing.T) {
	b := &WorldBuilder{cfg: Config{Params: Params{
		"bad.int": 2.5, "nan.int": math.NaN(), "good.int": 3, "good.float": 0.25,
	}}}
	if v := b.IntParam("bad.int", 6); v != 6 {
		t.Errorf("IntParam on a fraction returned %d, want default", v)
	}
	if v := b.IntParam("nan.int", 6); v != 6 {
		t.Errorf("IntParam on NaN returned %d, want default", v)
	}
	if v := b.IntParam("good.int", 6); v != 3 {
		t.Errorf("IntParam missed a good value: %d", v)
	}
	if v := b.FloatParam("good.float", 1.5); v != 0.25 {
		t.Errorf("FloatParam missed a good value: %v", v)
	}
	if v := b.FloatParam("absent", 1.5); v != 1.5 {
		t.Errorf("FloatParam default = %v", v)
	}
	if len(b.paramErrs) != 2 {
		t.Fatalf("recorded %d param errors, want 2: %v", len(b.paramErrs), b.paramErrs)
	}
	if want := []string{"bad.int", "nan.int", "good.int", "good.float", "absent"}; !slices.Equal(b.paramsRead, want) {
		t.Fatalf("knobs read %v, want %v", b.paramsRead, want)
	}
}
