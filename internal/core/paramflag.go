package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ParseParam parses one command-line knob of the form "name=value".
// The value must be a number. A literal strconv.ParseInt(…, 0, 64)
// accepts (decimal, 0x/0o/0b prefixes, underscores) is taken when a
// float64 holds it exactly; anything else is left to
// strconv.ParseFloat, except NaN: a NaN knob compares unequal to
// itself, so it could never be range-checked or reproduced. Only the
// first '=' splits: "x=a=b" carries the value "a=b", which is refused.
//
// Malformed input (no '=', an empty or whitespace-carrying name, a
// value that is not a number) is reported as a *ParamError, never a
// panic.
func ParseParam(s string) (name string, value float64, err error) {
	name, lit, found := strings.Cut(s, "=")
	if !found {
		return "", 0, &ParamError{Name: s, Want: "name=value", Got: s}
	}
	if name == "" || strings.ContainsFunc(name, isSpace) {
		return "", 0, &ParamError{Name: name, Want: "a non-empty name without spaces", Got: s}
	}
	if n, err := strconv.ParseInt(lit, 0, 64); err == nil {
		// Exact only if converting back gives n; f < 2^63 keeps that
		// conversion in int64's range.
		if f := float64(n); f < 1<<63 && int64(f) == n {
			return name, f, nil
		}
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil && !math.IsNaN(f) {
		return name, f, nil
	}
	return "", 0, &ParamError{Name: name, Want: "a number", Got: lit}
}

func isSpace(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// ParamFlag is a flag.Value accumulating repeated "-param name=value"
// arguments into a Params bag:
//
//	var params core.ParamFlag
//	flag.Var(&params, "param", "driver knob name=number (repeatable)")
//
// A value ParseParam refuses fails the flag parse. Later assignments
// to the same name win. Family presets still pin their own knobs over
// anything set here (preset wins at Build).
type ParamFlag struct {
	Params Params
}

// String implements flag.Value: the accumulated knobs as sorted
// comma-joined name=value pairs.
func (f *ParamFlag) String() string {
	if f == nil || len(f.Params) == 0 {
		return ""
	}
	parts := make([]string, 0, len(f.Params))
	for k, v := range f.Params {
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	slices.Sort(parts)
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (f *ParamFlag) Set(s string) error {
	name, v, err := ParseParam(s)
	if err != nil {
		return err
	}
	if f.Params == nil {
		f.Params = make(Params)
	}
	f.Params[name] = v
	return nil
}
