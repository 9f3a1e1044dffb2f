package experiment

import (
	"strings"
	"testing"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		in   string
		want AdversaryMix
	}{
		{"clean", AdversaryMix{Label: "clean"}},
		{"liar15", AdversaryMix{Label: "liar15", LiarFrac: 0.15}},
		{"liar7.5", AdversaryMix{Label: "liar7.5", LiarFrac: 0.075}},
		{"crash20", AdversaryMix{Label: "crash20", CrashFrac: 0.20}},
		{"jam10b32", AdversaryMix{Label: "jam10b32", JamFrac: 0.10, JamBudget: 32}},
		{"jam10/b8", AdversaryMix{Label: "jam10/b8", JamFrac: 0.10, JamBudget: 8}},
		{"jam10%b8", AdversaryMix{Label: "jam10%b8", JamFrac: 0.10, JamBudget: 8}},
		{"jam25", AdversaryMix{Label: "jam25", JamFrac: 0.25}},
		{"spoof10b16", AdversaryMix{Label: "spoof10b16", SpoofFrac: 0.10, SpoofBudget: 16}},
		{"churn10o8", AdversaryMix{Label: "churn10o8", ChurnFrac: 0.10, ChurnOutage: 8}},
		{"churn10/o8", AdversaryMix{Label: "churn10/o8", ChurnFrac: 0.10, ChurnOutage: 8}},
		{"churn10%o8", AdversaryMix{Label: "churn10%o8", ChurnFrac: 0.10, ChurnOutage: 8}},
		{"churn20", AdversaryMix{Label: "churn20", ChurnFrac: 0.20}},
		{"liar5+churn10o8", AdversaryMix{Label: "liar5+churn10o8", LiarFrac: 0.05, ChurnFrac: 0.10, ChurnOutage: 8}},
		{"liar5+jam10b8", AdversaryMix{Label: "liar5+jam10b8", LiarFrac: 0.05, JamFrac: 0.10, JamBudget: 8}},
		{"liar10%+crash5%+spoof10%b4", AdversaryMix{
			Label:    "liar10%+crash5%+spoof10%b4",
			LiarFrac: 0.10, CrashFrac: 0.05, SpoofFrac: 0.10, SpoofBudget: 4,
		}},
		{"  Liar10  ", AdversaryMix{Label: "Liar10", LiarFrac: 0.10}},
		{"liar100", AdversaryMix{Label: "liar100", LiarFrac: 1}},
		{"liar1e2", AdversaryMix{Label: "liar1e2", LiarFrac: 1}},
		{"liar1e-02", AdversaryMix{Label: "liar1e-02", LiarFrac: 0.0001}},
		// 100% in all, though the fractions add up to 1 + 2^-52.
		{"liar33+crash56+jam11", AdversaryMix{Label: "liar33+crash56+jam11", LiarFrac: 0.33, CrashFrac: 0.56, JamFrac: 0.11}},
	}
	for _, c := range cases {
		got, err := ParseMix(c.in)
		if err != nil {
			t.Errorf("ParseMix(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"  ",
		"liar",               // no percentage
		"liar0",              // zero fraction
		"liar101",            // > 100%
		"liar-5",             // negative
		"liar5x",             // trailing garbage
		"liar5b4",            // liars take no budget
		"crash5b4",           // crashers take no budget
		"jam5b",              // empty budget
		"jam5b0",             // zero budget
		"jam5b-3",            // negative budget
		"jam5o4",             // jam's budget marker is 'b', not 'o'
		"churn5b4",           // churn's budget marker is 'o', not 'b'
		"churn5o",            // empty outage budget
		"churn5o0",           // zero outage budget
		"churn5o-3",          // negative outage budget
		"gremlin5",           // unknown kind
		"liar5+liar10",       // duplicate kind
		"liar5+",             // empty component
		"liar5,jam5",         // list syntax is ParseMixes' job
		"jam5//b4",           // doubled separator
		"liar5..5",           // malformed number
		"clean+liar5",        // clean is not a component
		"liar1e",             // dangling exponent marker
		"liar1e-",            // exponent without digits
		"liar60+jam60",       // more adversaries than devices
		"liar100+crash0.001", // over 100% by a thousandth of a percent
	} {
		if m, err := ParseMix(in); err == nil {
			t.Errorf("ParseMix(%q) = %+v, want error", in, m)
		}
	}
}

func TestParseMixRoundTripsLadder(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, m := range Ladder(full) {
			label := m.Mix()
			got, err := ParseMix(label)
			if err != nil {
				t.Errorf("ladder label %q does not parse: %v", label, err)
				continue
			}
			got.Label = m.Label
			if got != m {
				t.Errorf("ParseMix(%q) = %+v, want ladder mix %+v", label, got, m)
			}
		}
	}
}

func TestParseMixes(t *testing.T) {
	ms, err := ParseMixes("clean,liar15,jam10b32")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || !ms[0].IsZero() || ms[1].LiarFrac != 0.15 || ms[2].JamBudget != 32 {
		t.Fatalf("ParseMixes = %+v", ms)
	}
	for _, in := range []string{"", "liar15,", ",liar15", "liar15,,jam5"} {
		if _, err := ParseMixes(in); err == nil {
			t.Errorf("ParseMixes(%q) succeeded, want error", in)
		}
	}
}

// FuzzParseMix checks that the parser never panics and that accepted
// inputs reach a canonical fixed point: stripping the label and
// re-rendering via Mix() yields a string that parses to a mix with the
// same rendering.
func FuzzParseMix(f *testing.F) {
	for _, seed := range []string{
		"clean", "liar15", "liar7.5", "crash20", "jam10b32", "jam10/b8",
		"spoof10b16", "liar5+jam10b8", "liar10%+crash5%+spoof10%b4",
		"churn10o8", "churn10/o8", "churn20", "liar5+churn10o8", "churn5b4",
		"liar", "liar0", "liar101", "gremlin5", "liar5+liar10", "jam5b",
		"", "+", "%", "b", "liar5x", "100", "liar1e2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseMix(in)
		if err != nil {
			return
		}
		if strings.TrimSpace(in) == "" {
			t.Fatalf("accepted blank input %q", in)
		}
		m.Label = ""
		canon := m.Mix()
		m2, err := ParseMix(canon)
		if err != nil {
			t.Fatalf("canonical rendering %q of %q does not re-parse: %v", canon, in, err)
		}
		m2.Label = ""
		if got := m2.Mix(); got != canon {
			t.Fatalf("rendering not a fixed point: %q -> %q -> %q", in, canon, got)
		}
	})
}
