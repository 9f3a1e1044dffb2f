package core

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

func TestParseParamTyping(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want float64
	}{
		{"gossip.fanout=3", "gossip.fanout", 3},
		{"gossip.prob=0.7", "gossip.prob", 0.7},
		// Integer literals take Go's prefixes and underscores.
		{"nwatch.votes=0x10", "nwatch.votes", 16},
		{"epidemic.repeats=0b101", "epidemic.repeats", 5},
		{"x.o=0o17", "x.o", 15},
		{"x.u=1_000", "x.u", 1000},
		{"x.n=-7", "x.n", -7},
		{"x.f=3.", "x.f", 3},
		{"x.f=1e3", "x.f", 1000},
		{"x.f=+3.5", "x.f", 3.5},
		{"x.h=0x1p-2", "x.h", 0.25},
		// A number drivers refuse is still a number; Build refuses it.
		{"x.inf=Inf", "x.inf", math.Inf(1)},
		// An integer a float64 cannot hold exactly is rounded the way
		// ParseFloat rounds it, never wrapped.
		{"x.big=9007199254740993", "x.big", 9007199254740992},
		{"x.max=9223372036854775807", "x.max", 1 << 63},
		{"x.min=-9223372036854775808", "x.min", -1 << 63},
	}
	for _, c := range cases {
		name, v, err := ParseParam(c.in)
		if err != nil {
			t.Errorf("ParseParam(%q) error: %v", c.in, err)
			continue
		}
		if name != c.name || v != c.want {
			t.Errorf("ParseParam(%q) = (%q, %v), want (%q, %v)", c.in, name, v, c.name, c.want)
		}
	}
}

func TestParseParamMalformed(t *testing.T) {
	for _, in := range []string{
		"",             // no '='
		"gossip.prob",  // no '='
		"=3",           // empty name
		"a b=3",        // whitespace in name
		"\tx=1",        // whitespace in name
		"gossip.prob=", // empty value
		// Values that are not numbers: no driver reads a bool or a
		// string knob.
		"x=true",
		"gossip.fanout=hi",
		"x=True",
		`x="3"`,
		"x=a=b",
		"x=NaN",   // never equal to itself
		"x=1e400", // out of float64's range
		"x=0x",
		"x=1__0",
		"x= 3",
	} {
		_, _, err := ParseParam(in)
		if err == nil {
			t.Errorf("ParseParam(%q) accepted malformed input", in)
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("ParseParam(%q) error %T is not *ParamError", in, err)
		}
	}
	// A refused value names its knob.
	_, _, err := ParseParam("gossip.fanout=hi")
	if want := `param gossip.fanout: want a number, got "hi"`; err == nil || err.Error() != want {
		t.Errorf("ParseParam(gossip.fanout=hi) error %v, want %q", err, want)
	}
}

func TestParamFlagAccumulates(t *testing.T) {
	var f ParamFlag
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	fs.Var(&f, "param", "")
	if err := fs.Parse([]string{"-param", "a.x=1", "-param", "a.y=0.5", "-param", "a.x=2"}); err != nil {
		t.Fatal(err)
	}
	if got := f.Params["a.x"]; got != 2 {
		t.Errorf("last assignment should win: a.x = %v", got)
	}
	if got := f.Params["a.y"]; got != 0.5 {
		t.Errorf("a.y = %v", got)
	}
	if s := f.String(); s != "a.x=2,a.y=0.5" {
		t.Errorf("String() = %q", s)
	}
	for _, bad := range []string{"broken", "a.z=true"} {
		if err := fs.Parse([]string{"-param", bad}); err == nil {
			t.Errorf("malformed -param %s accepted by the flag set", bad)
		}
	}
	if _, ok := f.Params["a.z"]; ok {
		t.Error("a refused -param left a knob behind")
	}
	var empty ParamFlag
	if empty.String() != "" {
		t.Error("empty ParamFlag String() not empty")
	}
}

// TestParseParamRoundTripsThroughGetters pins the contract between the
// parser and the Params getters: whatever ParseParam produces is read
// back unchanged by FloatOr, and by IntOr when it is a whole number.
func TestParseParamRoundTripsThroughGetters(t *testing.T) {
	p := make(Params)
	for _, in := range []string{"a=3", "b=0.25", "c=0x10", "d=2.0", "e=-1e3"} {
		name, v, err := ParseParam(in)
		if err != nil {
			t.Fatal(err)
		}
		p[name] = v
	}
	for name, want := range map[string]int{"a": 3, "c": 16, "d": 2, "e": -1000} {
		if n, err := p.IntOr(name, 0); err != nil || n != want {
			t.Errorf("IntOr(%s) = %d, %v, want %d", name, n, err, want)
		}
		if f := p.FloatOr(name, 0); f != float64(want) {
			t.Errorf("FloatOr(%s) = %v, want %d", name, f, want)
		}
	}
	if f := p.FloatOr("b", 0); f != 0.25 {
		t.Errorf("FloatOr(b) = %v", f)
	}
	if _, err := p.IntOr("b", 0); err == nil {
		t.Error("IntOr(b) accepted 0.25")
	}
}

// FuzzParseParam drives the command-line knob parser with arbitrary
// input: it must never panic, every rejection must be a *ParamError,
// and every acceptance must produce a well-formed name and a number
// other than NaN that survives ParamFlag.Set and a render/re-parse
// round trip.
func FuzzParseParam(f *testing.F) {
	for _, seed := range []string{
		"gossip.fanout=3", "gossip.prob=0.7", "x=true", "x=false",
		"x=0x10", "x=0b101", "x=1e9", "x=a=b", "x=", "=x", "novalue",
		"", "a b=1", "x=NaN", "x=-7", "x=+3.5", "x=9223372036854775808",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, v, err := ParseParam(s)
		if err != nil {
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseParam(%q) error %T is not *ParamError", s, err)
			}
			return
		}
		if name == "" || strings.ContainsFunc(name, isSpace) {
			t.Fatalf("ParseParam(%q) accepted bad name %q", s, name)
		}
		if math.IsNaN(v) {
			t.Fatalf("ParseParam(%q) accepted NaN", s)
		}
		var pf ParamFlag
		if err := pf.Set(s); err != nil {
			t.Fatalf("ParseParam accepted %q but ParamFlag.Set rejected it: %v", s, err)
		}
		if got, ok := pf.Params[name]; !ok || got != v {
			t.Fatalf("ParamFlag.Set(%q) stored %v, ParseParam produced %v", s, got, v)
		}
		// The rendered value (ParamFlag.String's and the cell key's
		// shortest form) parses back to the same number.
		lit := strconv.FormatFloat(v, 'g', -1, 64)
		if _, back, err := ParseParam(name + "=" + lit); err != nil || back != v {
			t.Fatalf("ParseParam(%q) = %v; its rendering %q re-parses to %v, %v", s, v, lit, back, err)
		}
	})
}

// FuzzParamsGetters drives the getters with arbitrary keys, values and
// defaults: no input may panic, FloatOr returns the stored number or
// the default, and IntOr accepts exactly the whole numbers int holds
// (math/big decides which those are), giving the default and a
// *ParamError naming the knob for any other value.
func FuzzParamsGetters(f *testing.F) {
	f.Add("gossip.fanout", "gossip.fanout", 3.0, int64(1))
	f.Add("", "", math.Copysign(0, -1), int64(-1))
	f.Add("a", "a", 2.5, int64(1<<40))
	f.Add("x", "y", 1e308, int64(0))
	f.Fuzz(func(t *testing.T, key, probe string, v float64, def int64) {
		p := Params{key: v}
		want := float64(def)
		if probe == key {
			want = v
		}
		if got := p.FloatOr(probe, float64(def)); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("FloatOr(%q) = %v, want %v (bag %v)", probe, got, want, p)
		}

		n, err := p.IntOr(probe, int(def))
		if probe != key {
			if err != nil || n != int(def) {
				t.Fatalf("IntOr(%q) on an absent knob = %d, %v, want the default %d", probe, n, err, def)
			}
		} else {
			var whole int64
			isInt := false
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				bf := big.NewFloat(v)
				var acc big.Accuracy
				whole, acc = bf.Int64()
				isInt = bf.IsInt() && acc == big.Exact && whole >= math.MinInt && whole <= math.MaxInt
			}
			switch {
			case isInt && (err != nil || int64(n) != whole):
				t.Fatalf("IntOr(%q) on %v = %d, %v, want %d", probe, v, n, err, whole)
			case !isInt && err == nil:
				t.Fatalf("IntOr(%q) accepted %v as %d", probe, v, n)
			case !isInt && n != int(def):
				t.Fatalf("IntOr(%q) on %v returned %d, want the default %d", probe, v, n, def)
			}
			var pe *ParamError
			if err != nil && (!errors.As(err, &pe) || pe.Name != probe) {
				t.Fatalf("IntOr(%q) error %v is not a ParamError naming the knob", probe, err)
			}
		}
		if s := (&ParamFlag{Params: p}).String(); s != fmt.Sprintf("%s=%v", key, v) {
			t.Fatalf("ParamFlag rendered %q for bag %v", s, p)
		}
	})
}
