package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseMix parses a compact adversary-mix label — the format Mix()
// renders and the ladder labels use — into an AdversaryMix:
//
//	clean                  the honest network
//	liar15                 15% lying devices
//	crash10                10% crashed devices
//	jam10b32               10% jammers, 32 broadcasts each
//	spoof10b16             10% spoofers, 16 broadcasts each
//	churn10o8              10% crash-recover devices, 8 cycles outage each
//	liar5+jam10b8          combined mixes, '+'-separated
//
// Percentages may be fractional ("liar7.5") and may carry an explicit
// '%' ("liar10%"); a budget may be separated by '/' ("jam10/b8", the
// ladder's label spelling), and churn's outage budget uses 'o' the same
// way ("churn10/o8"). Matching is case-insensitive. Each kind may
// appear at most once, and the percentages may not sum above 100. The
// returned mix carries the input (trimmed) as its Label, so tables show
// the label the user asked for.
func ParseMix(s string) (AdversaryMix, error) {
	label := strings.TrimSpace(s)
	in := strings.ToLower(label)
	if in == "" {
		return AdversaryMix{}, fmt.Errorf("empty adversary mix")
	}
	m := AdversaryMix{Label: label}
	if in == "clean" {
		return m, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(in, "+") {
		kind, frac, budget, err := parseMixPart(part)
		if err != nil {
			return AdversaryMix{}, fmt.Errorf("mix %q: %w", label, err)
		}
		if seen[kind] {
			return AdversaryMix{}, fmt.Errorf("mix %q: duplicate %q", label, kind)
		}
		seen[kind] = true
		switch kind {
		case "liar":
			m.LiarFrac = frac
		case "crash":
			m.CrashFrac = frac
		case "jam":
			m.JamFrac, m.JamBudget = frac, budget
		case "spoof":
			m.SpoofFrac, m.SpoofBudget = frac, budget
		case "churn":
			m.ChurnFrac, m.ChurnOutage = frac, budget
		}
	}
	if err := m.check(); err != nil {
		return AdversaryMix{}, fmt.Errorf("mix %q: %w", label, err)
	}
	return m, nil
}

// parseMixPart parses one '+'-separated component: kind, percentage,
// optional budget (broadcasts for jam/spoof, outage cycles for churn).
func parseMixPart(part string) (kind string, frac float64, budget int, err error) {
	rest := part
	for _, k := range []string{"liar", "crash", "jam", "spoof", "churn"} {
		if v, ok := strings.CutPrefix(rest, k); ok {
			kind, rest = k, v
			break
		}
	}
	if kind == "" {
		return "", 0, 0, fmt.Errorf("component %q: want liar/crash/jam/spoof/churn", part)
	}
	// Percentage: digits and dots, optionally an exponent ("1e-07" —
	// Mix() renders tiny fractions that way), optionally terminated by
	// '%'. A positive exponent never carries '+' (it would collide with
	// the component separator); %g only emits bare digits there.
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }
	cut := 0
	for cut < len(rest) && (isDigit(rest[cut]) || rest[cut] == '.') {
		cut++
	}
	if cut < len(rest) && rest[cut] == 'e' {
		p := cut + 1
		if p < len(rest) && rest[p] == '-' {
			p++
		}
		q := p
		for q < len(rest) && isDigit(rest[q]) {
			q++
		}
		if q > p {
			cut = q
		}
	}
	num := rest[:cut]
	rest = rest[cut:]
	rest = strings.TrimPrefix(rest, "%")
	pct, perr := strconv.ParseFloat(num, 64)
	if num == "" || perr != nil {
		return "", 0, 0, fmt.Errorf("component %q: bad percentage %q", part, num)
	}
	if pct <= 0 || pct > 100 {
		return "", 0, 0, fmt.Errorf("component %q: percentage %g out of (0,100]", part, pct)
	}
	frac = pct / 100
	// Optional budget: [/]b<int> for the broadcast-budgeted kinds
	// (jam/spoof), [/]o<int> outage cycles for churn.
	if rest != "" {
		rest = strings.TrimPrefix(rest, "/")
		marker := "b"
		if kind == "churn" {
			marker = "o"
		}
		b, ok := strings.CutPrefix(rest, marker)
		if !ok {
			return "", 0, 0, fmt.Errorf("component %q: trailing %q", part, rest)
		}
		budget, err = strconv.Atoi(b)
		if err != nil || budget <= 0 {
			return "", 0, 0, fmt.Errorf("component %q: bad budget %q", part, b)
		}
		if kind == "liar" || kind == "crash" {
			return "", 0, 0, fmt.Errorf("component %q: %s takes no budget", part, kind)
		}
	}
	return kind, frac, budget, nil
}

// ParseMixes parses a comma-separated list of mix labels (the rbexp
// -mixes flag).
func ParseMixes(s string) ([]AdversaryMix, error) {
	var out []AdversaryMix
	for _, item := range strings.Split(s, ",") {
		if strings.TrimSpace(item) == "" {
			return nil, fmt.Errorf("empty mix in list %q", s)
		}
		m, err := ParseMix(item)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
