package experiment

import (
	"fmt"

	"authradio/internal/core"
)

// AdversaryMix declares one cell's adversary dimension: which fractions
// of the deployment lie, crash, jam and spoof, and the budgets the
// active attackers spend. It is the unit the paper's robustness story
// sweeps (Figures 6/7 vary the liar fraction, Section 6.1 the
// per-jammer budget), hoisted onto one shared type so experiments
// declare mixes instead of wiring per-figure fields. The zero value is
// the honest network.
type AdversaryMix struct {
	// Label names the mix in tables and scenario names; when empty,
	// Mix() derives a deterministic one from the knobs.
	Label string

	// LiarFrac is the fraction of devices running the protocol
	// initialised with a fake message (Figure 6/7's failure model).
	LiarFrac float64
	// CrashFrac is the fraction of devices that take no steps at all
	// (Figure 5's failure model).
	CrashFrac float64

	// JamFrac is the fraction of devices jamming veto rounds
	// (Section 6.1's model); JamBudget bounds each jammer's broadcasts
	// (0 = unlimited) and JamProb is the per-veto-round jam probability
	// (0 selects the paper's 1/5).
	JamFrac   float64
	JamBudget int
	JamProb   float64

	// SpoofFrac is the fraction of devices injecting garbage data
	// frames in arbitrary rounds; SpoofBudget bounds each spoofer's
	// broadcasts (0 = unlimited) and SpoofProb is the per-round
	// broadcast probability (0 selects adversary.DefaultSpoofProb).
	SpoofFrac   float64
	SpoofBudget int
	SpoofProb   float64

	// ChurnFrac is the fraction of devices that crash-recover: honest
	// protocol nodes that go radio-silent for sampled outage windows and
	// then resume with their state intact. ChurnOutage is each one's
	// total outage budget in schedule cycles (0 selects
	// adversary.DefaultChurnOutage).
	ChurnFrac   float64
	ChurnOutage int
}

// IsZero reports whether the mix assigns no adversarial role at all.
func (m AdversaryMix) IsZero() bool {
	return m.LiarFrac == 0 && m.CrashFrac == 0 && m.JamFrac == 0 && m.SpoofFrac == 0 && m.ChurnFrac == 0
}

// check refuses role fractions that do not fit one deployment: each
// must lie in [0, 1] and together they may not exceed 1, since roles
// would otherwise place fewer adversaries than asked. A sum above 1 by
// rounding alone (liar33+crash56+jam11 adds up to 1.0000000000000002)
// passes.
func (m AdversaryMix) check() error {
	sum := 0.0
	for _, f := range []float64{m.LiarFrac, m.CrashFrac, m.JamFrac, m.SpoofFrac, m.ChurnFrac} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("role fraction %v outside [0, 1]", f)
		}
		sum += f
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("roles take %.4g%% of the devices, above 100%%", 100*sum)
	}
	return nil
}

// Mix returns the mix's display label: Label when set, otherwise a
// deterministic compact rendering of the non-zero knobs ("clean",
// "liar10%", "jam10%b16", "liar5%+spoof10%b8").
func (m AdversaryMix) Mix() string {
	if m.Label != "" {
		return m.Label
	}
	if m.IsZero() {
		return "clean"
	}
	pct := func(f float64) string {
		s := fmt.Sprintf("%g", 100*f)
		return s + "%"
	}
	var out string
	add := func(part string) {
		if out != "" {
			out += "+"
		}
		out += part
	}
	if m.LiarFrac > 0 {
		add("liar" + pct(m.LiarFrac))
	}
	if m.CrashFrac > 0 {
		add("crash" + pct(m.CrashFrac))
	}
	if m.JamFrac > 0 {
		part := "jam" + pct(m.JamFrac)
		if m.JamBudget > 0 {
			part += fmt.Sprintf("b%d", m.JamBudget)
		}
		add(part)
	}
	if m.SpoofFrac > 0 {
		part := "spoof" + pct(m.SpoofFrac)
		if m.SpoofBudget > 0 {
			part += fmt.Sprintf("b%d", m.SpoofBudget)
		}
		add(part)
	}
	if m.ChurnFrac > 0 {
		part := "churn" + pct(m.ChurnFrac)
		if m.ChurnOutage > 0 {
			part += fmt.Sprintf("o%d", m.ChurnOutage)
		}
		add(part)
	}
	return out
}

// FamiliesMix is the fixed adversary mix of the families sweep (and
// the matrix ladder's middle rung): the 10% lying devices of the
// paper's Figure 6 midpoint.
var FamiliesMix = AdversaryMix{Label: "liar10", LiarFrac: 0.10}

// Ladder returns the default adversary ladder of the matrix sweep: a
// clean baseline, the families liar mix plus a heavier rung, a
// per-jammer budget ladder (Section 6.1's varied quantity), a spoofer
// mix attacking data rounds instead of veto rounds, and a crash-recover
// churn rung (the ROADMAP's missing adversary axis). Full mode widens
// every dimension.
func Ladder(full bool) []AdversaryMix {
	if full {
		return []AdversaryMix{
			{},
			{Label: "liar5", LiarFrac: 0.05},
			FamiliesMix,
			{Label: "liar20", LiarFrac: 0.20},
			{Label: "jam10/b8", JamFrac: 0.10, JamBudget: 8},
			{Label: "jam10/b16", JamFrac: 0.10, JamBudget: 16},
			{Label: "jam10/b32", JamFrac: 0.10, JamBudget: 32},
			{Label: "spoof10/b16", SpoofFrac: 0.10, SpoofBudget: 16},
			{Label: "churn10/o8", ChurnFrac: 0.10, ChurnOutage: 8},
			{Label: "churn20/o16", ChurnFrac: 0.20, ChurnOutage: 16},
		}
	}
	return []AdversaryMix{
		{},
		FamiliesMix,
		{Label: "liar20", LiarFrac: 0.20},
		{Label: "jam10/b8", JamFrac: 0.10, JamBudget: 8},
		{Label: "jam10/b24", JamFrac: 0.10, JamBudget: 24},
		{Label: "spoof10/b16", SpoofFrac: 0.10, SpoofBudget: 16},
		{Label: "churn10/o8", ChurnFrac: 0.10, ChurnOutage: 8},
	}
}

// ladder returns the adversary ladder in force: the -mixes override
// when set, the default Ladder otherwise.
func (o Options) ladder() []AdversaryMix {
	if len(o.Mixes) > 0 {
		return o.Mixes
	}
	return Ladder(o.Full)
}

// SweepMatrix crosses every instance with every adversary mix over one
// shared base cell: the D×P grid of scenarios SweepInstances would
// produce for each mix, ordered instance-major (every mix of instance
// 0, then instance 1, …). Because the deployment cache keys on
// geometry only and the schedule caches key on deployment content, the
// whole matrix shares one world-construction pass per repetition —
// adding a mix costs simulation time, not geometry work.
func SweepMatrix(base Scenario, instances []string, mixes []AdversaryMix) []Scenario {
	out := make([]Scenario, 0, len(instances)*len(mixes))
	for _, s := range SweepInstances(base, instances) {
		for _, mix := range mixes {
			cell := s
			cell.AdversaryMix = mix
			cell.Name = s.Name + "/" + mix.Mix()
			out = append(out, cell)
		}
	}
	return out
}

// MatrixGrid enumerates the matrix sweep's scenarios — the shared
// analytical grid crossed instance-major with the adversary ladder —
// restricted to the given instances and mixes (nil or empty selects
// every core.Instances() entry and the Options ladder), and returns
// them with the per-cell repetition count. It is the single
// enumeration path behind `rbexp -exp matrix` and the sweep service's
// matrix grid. Because cell identity is content-addressed (scenario
// *names* are not part of the key), the dropoff sweep's ladder walk
// lands on exactly these cells too: a cache warmed by one sweep
// serves the others.
func MatrixGrid(o Options, instances []string, mixes []AdversaryMix) ([]Scenario, int) {
	gridW := 7
	if o.Full {
		gridW = 11
	}
	reps := o.reps(1, 3)
	base := Scenario{
		Name:    "matrix",
		Deploy:  GridDeploy,
		GridW:   gridW,
		Range:   2,
		MsgBits: 0b1011,
		MsgLen:  4,
		Seed:    o.seed(),
	}
	if len(instances) == 0 {
		instances = core.Instances()
	}
	if len(mixes) == 0 {
		mixes = o.ladder()
	}
	scens := SweepMatrix(base, instances, mixes)
	for i := range scens {
		scens[i].MaxRounds = maxRoundsFor(familyOf(scens[i].ProtocolName), o.Full)
	}
	return scens, reps
}

// Matrix is the adversary-ladder matrix sweep: every registered
// instance (core.Instances()) crossed with the default adversary
// ladder (Ladder), the four paper metrics per (instance, mix) cell.
// This is the paper's full Fig 6/7-style robustness surface — protocol
// × adversary — for every protocol family in one run; `rbexp -exp
// matrix -json` serializes it byte-stably for a fixed seed.
func Matrix(o Options) []Table {
	gridW := 7
	if o.Full {
		gridW = 11
	}
	scens, reps := MatrixGrid(o, nil, nil)
	mixes := o.ladder()
	tbl := Table{
		Title: "Adversary matrix — the four paper metrics per instance × adversary mix",
		Note: fmt.Sprintf("%dx%d analytical grid, R=2, 4-bit message, %d reps; every core.Instances() entry × %d mixes (liar ladder, per-jammer budget ladder, spoofers, crash-recover churn); latency = mean last completion round, delivery = %% honest complete, spurious = %% of completed accepting a wrong message, energy = mean honest broadcasts, comps = mean live components, src del = %% delivery within the source's component",
			gridW, gridW, reps, len(mixes)),
		Header: []string{"instance", "family", "mix", "latency", "delivery %", "spurious %", "energy (tx)", "comps", "src del %"},
	}
	for _, s := range scens {
		_, agg := cell(s, o, reps)
		lat, del, spur, en := paperMetrics(agg)
		tbl.Add(s.ProtocolName, familyOf(s.ProtocolName), s.Mix(), lat, del, spur, en,
			agg.Components.Mean, agg.SrcDeliveryPct.Mean)
	}
	return []Table{tbl}
}
