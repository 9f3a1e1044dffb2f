package core

import (
	"fmt"
	"math"
)

// Params is the knob bag for protocol drivers: named numbers. Keys are
// conventionally "<protocol>.<knob>" (e.g. "gossip.fanout"). Values
// arrive from callers (scenario declarations, family presets, command
// lines), so a value a driver cannot take surfaces as a Build error,
// never a panic. A count is read with IntOr, which refuses anything
// but a whole number: 2.5 for a count is a caller mistake, not a value
// to truncate.
type Params map[string]float64

// ParamError describes a knob value that cannot be used: a
// command-line spelling that is not a number (ParseParam), or a number
// a count cannot take (IntOr).
type ParamError struct {
	// Name is the knob's key.
	Name string
	// Want says what the knob needs ("a number", "an int", ...).
	Want string
	// Got is the offending value: the text as given, or the stored
	// number.
	Got any
}

// Error implements error.
func (e *ParamError) Error() string {
	return fmt.Sprintf("param %s: want %s, got %#v", e.Name, e.Want, e.Got)
}

// FloatOr returns the named knob, or def when absent.
func (p Params) FloatOr(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// IntOr returns the named knob as an int, or def when absent. A value
// that is not a whole number in int's range (a fraction, NaN, an
// infinity) is an error, returned alongside def so a caller that must
// produce some value (WorldBuilder.IntParam) can proceed while the
// error propagates.
func (p Params) IntOr(name string, def int) (int, error) {
	v, ok := p[name]
	if !ok {
		return def, nil
	}
	// -math.MinInt is 2^63 (or 2^31), exact as a float64, so the range
	// test is exact too.
	if v != math.Trunc(v) || v < math.MinInt || v >= -math.MinInt {
		return def, &ParamError{Name: name, Want: "an int", Got: v}
	}
	return int(v), nil
}

// Merge returns p overlaid with over (over wins), leaving both inputs
// untouched. Whenever over is non-empty the result is a fresh map:
// over may be a family preset's registered bag, and handing it out by
// reference would let a caller mutating World.Cfg.Params corrupt the
// registered preset for every later build. Callers layering
// command-line knobs over scenario defaults use the same direction:
// base.Merge(cli).
func (p Params) Merge(over Params) Params {
	if len(over) == 0 {
		return p
	}
	out := make(Params, len(p)+len(over))
	for k, v := range p {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}
