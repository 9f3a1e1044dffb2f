package experiment

import (
	"fmt"

	"authradio/internal/core"
	"authradio/internal/proto/multipath"
	"authradio/internal/stats"
	"authradio/internal/sweep"
)

// cell runs a scenario for the configured repetitions and returns both
// raw results and their aggregate. Command-line knobs (Options.Params)
// overlay the scenario's own bag (inside SweepCells), so every named
// experiment is -param-drivable without per-runner wiring. Every
// experiment's repetitions route through the sweep pool: each becomes
// an addressable sweep.Cell, so attaching Options.Cache makes any
// experiment store-and-resume with no per-runner code — a killed sweep
// restarted with the same cache dir recomputes only missing cells, and
// the aggregate is byte-identical because cached results round-trip
// exactly (core.Result is all integers and bools).
func cell(s Scenario, o Options, reps int) ([]core.Result, Agg) {
	rs := sweep.Run(SweepCells(s, o, reps), sweep.Config{
		Cache:   o.Cache,
		Workers: o.Workers,
		Stats:   o.Sweep,
	})
	agg := Aggregate(rs)
	o.progress("  %-28s completion %.1f%%  correct %.1f%%  rounds %.0f",
		s.Name, agg.CompletionPct.Mean, agg.CorrectPct.Mean, agg.EndRound.Mean)
	return rs, agg
}

// correctOfHonest returns the mean percentage of honest nodes that
// received the correct message (Figure 7's criterion).
func correctOfHonest(rs []core.Result) float64 {
	var s float64
	for _, r := range rs {
		if r.Honest > 0 {
			s += 100 * float64(r.Correct) / float64(r.Honest)
		}
	}
	return s / float64(len(rs))
}

// protoVariant is one curve of Figures 5, 6 and 7: a protocol
// addressed by driver registry name (core.Lookup) and the knobs it is
// given (nil for the NeighborWatchRB rows).
type protoVariant struct {
	label  string
	proto  string
	params core.Params
}

func variants(full bool) []protoVariant {
	vs := []protoVariant{
		{"NeighborWatchRB", "NeighborWatchRB", nil},
		{"NW-2vote", "NeighborWatchRB-2vote", nil},
		{"MultiPathRB t=3", "MultiPathRB", core.Params{multipath.ParamT: 3}},
	}
	if full {
		vs = append(vs, protoVariant{"MultiPathRB t=5", "MultiPathRB", core.Params{multipath.ParamT: 5}})
	}
	return vs
}

// Fig5Crash regenerates Figure 5: "Percentage of devices that complete
// the protocol versus the density of the deployment, for different
// versions of the protocols" under crash failures. Crashes are modelled
// as in the paper: varying the number of active devices, i.e. the
// deployment density, on a fixed map.
func Fig5Crash(o Options) []Table {
	type preset struct {
		mapSide   float64
		r         float64
		densities []float64
		msgLen    int
		maxNW     uint64
		maxMP     uint64
	}
	p := preset{mapSide: 12, r: 3, densities: []float64{0.8, 1.6}, msgLen: 3, maxNW: 300_000, maxMP: 1_000_000}
	if o.Full {
		p = preset{mapSide: 24, r: 4, densities: []float64{0.5, 0.75, 1.0, 1.5, 2.0}, msgLen: 4, maxNW: 600_000, maxMP: 8_000_000}
	}
	reps := o.reps(2, 6)

	tbl := Table{
		Title:  "Figure 5 — completion % vs deployment density (crash failures)",
		Note:   fmt.Sprintf("map %.0fx%.0f, R=%.1f, %d-bit message, %d reps; paper: NW completes at lowest densities, MP t=5 needs the strongest connectivity", p.mapSide, p.mapSide, p.r, p.msgLen, reps),
		Header: []string{"density"},
	}
	vs := variants(o.Full)
	for _, v := range vs {
		tbl.Header = append(tbl.Header, v.label)
	}
	for _, dens := range p.densities {
		row := []interface{}{fmt.Sprintf("%.2f", dens)}
		nodes := int(dens * p.mapSide * p.mapSide)
		for _, v := range vs {
			maxR := p.maxNW
			if v.proto == "MultiPathRB" {
				maxR = p.maxMP
			}
			s := Scenario{
				Name:         fmt.Sprintf("fig5/%s/d=%.2f", v.label, dens),
				ProtocolName: v.proto,
				Deploy:       Uniform,
				Nodes:        nodes,
				MapSide:      p.mapSide,
				Range:        p.r,
				MsgBits:      0b1011,
				MsgLen:       p.msgLen,
				Params:       v.params,
				Seed:         o.seed(),
				MaxRounds:    maxR,
			}
			_, agg := cell(s, o, reps)
			row = append(row, fmt.Sprintf("%.1f", agg.CompletionPct.Mean))
		}
		tbl.Add(row...)
	}
	return []Table{tbl}
}

// Jamming regenerates the Section 6.1 jamming experiment (its graph is
// omitted in the paper for space): completion delay versus per-jammer
// broadcast budget, with 10% of devices jamming veto rounds at
// probability 1/5. The paper's claim: "There is a linear relationship
// between the amount of jamming and the delay."
func Jamming(o Options) []Table {
	type preset struct {
		mapSide float64
		nodes   int
		r       float64
		budgets []int
	}
	p := preset{mapSide: 12, nodes: 180, r: 3, budgets: []int{0, 16, 32, 64}}
	if o.Full {
		p = preset{mapSide: 24, nodes: 800, r: 4, budgets: []int{0, 8, 16, 32, 64}}
	}
	reps := o.reps(4, 8)

	tbl := Table{
		Title:  "Jamming — completion time vs per-jammer budget (NeighborWatchRB)",
		Note:   fmt.Sprintf("map %.0fx%.0f, %d nodes (density %.2f), 10%% jammers, jam prob 1/5, %d reps", p.mapSide, p.mapSide, p.nodes, float64(p.nodes)/(p.mapSide*p.mapSide), reps),
		Header: []string{"budget/jammer", "finish round (mean)", "finish round (std)", "completion %", "byz broadcasts"},
	}
	var xs, ys []float64
	for _, b := range p.budgets {
		s := Scenario{
			Name:         fmt.Sprintf("jam/b=%d", b),
			ProtocolName: "NeighborWatchRB",
			Deploy:       Uniform,
			Nodes:        p.nodes,
			MapSide:      p.mapSide,
			Range:        p.r,
			MsgBits:      0b1011,
			MsgLen:       4,
			AdversaryMix: AdversaryMix{JamFrac: 0.10, JamBudget: b},
			Seed:         o.seed(),
			MaxRounds:    10_000_000,
		}
		if b == 0 {
			// Baseline: the same 10% of devices are lost as relays but
			// never transmit — jamming with budget zero is a crash.
			// This keeps the overlay topology identical across rows so
			// the sweep isolates the jamming delay.
			s.JamFrac, s.CrashFrac = 0, 0.10
		}
		_, agg := cell(s, o, reps)
		tbl.Add(b, agg.LastCompletion.Mean, agg.LastCompletion.Std, agg.CompletionPct.Mean, agg.ByzTx.Mean)
		xs = append(xs, float64(b))
		ys = append(ys, agg.LastCompletion.Mean)
	}
	slope, intercept, r2 := stats.LinearFit(xs, ys)
	fit := Table{
		Title:  "Jamming — linearity check",
		Note:   "paper: damage is proportional to the amount of jamming",
		Header: []string{"slope (rounds/budget)", "intercept", "r^2"},
	}
	fit.Add(fmt.Sprintf("%.1f", slope), fmt.Sprintf("%.0f", intercept), fmt.Sprintf("%.3f", r2))
	return []Table{tbl, fit}
}

// Fig6Lying regenerates Figure 6: "The percentage of delivered messages
// that are correct, versus the percentage of malicious devices for
// different variants of the protocols."
func Fig6Lying(o Options) []Table {
	type preset struct {
		mapSide float64
		nodes   int
		r       float64
		fracs   []float64
		maxNW   uint64
		maxMP   uint64
	}
	p := preset{mapSide: 12, nodes: 220, r: 4, fracs: []float64{0, 0.05, 0.10, 0.15}, maxNW: 400_000, maxMP: 1_200_000}
	if o.Full {
		p = preset{mapSide: 20, nodes: 600, r: 4, fracs: []float64{0, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20}, maxNW: 800_000, maxMP: 12_000_000}
	}
	reps := o.reps(2, 6)

	tbl := Table{
		Title:  "Figure 6 — % of delivered messages that are correct vs % lying devices",
		Note:   fmt.Sprintf("map %.0fx%.0f, %d nodes, R=%.1f, 4-bit message, %d reps; paper: NW outperforms MP despite weaker theory, steep drop past the tolerance threshold", p.mapSide, p.mapSide, p.nodes, p.r, reps),
		Header: []string{"% liars"},
	}
	vs := variants(o.Full)
	for _, v := range vs {
		tbl.Header = append(tbl.Header, v.label)
	}
	for _, frac := range p.fracs {
		row := []interface{}{fmt.Sprintf("%.1f", 100*frac)}
		for _, v := range vs {
			maxR := p.maxNW
			if v.proto == "MultiPathRB" {
				maxR = p.maxMP
			}
			s := Scenario{
				Name:         fmt.Sprintf("fig6/%s/l=%.1f%%", v.label, 100*frac),
				ProtocolName: v.proto,
				Deploy:       Uniform,
				Nodes:        p.nodes,
				MapSide:      p.mapSide,
				Range:        p.r,
				MsgBits:      0b1011,
				MsgLen:       4,
				Params:       v.params,
				AdversaryMix: AdversaryMix{LiarFrac: frac},
				Seed:         o.seed(),
				MaxRounds:    maxR,
			}
			_, agg := cell(s, o, reps)
			row = append(row, fmt.Sprintf("%.1f", agg.CorrectPct.Mean))
		}
		tbl.Add(row...)
	}
	return []Table{tbl}
}

// Fig7Density regenerates Figure 7: "For a given deployment density,
// the maximum percentage of Byzantine nodes tolerated in order for at
// least 90% of honest nodes to receive the correct message." The ladder
// of liar fractions is scanned upward until the criterion fails.
func Fig7Density(o Options) []Table {
	type preset struct {
		mapSide   float64
		r         float64
		densities []float64
		ladder    []float64
		mpMaxDens float64
	}
	p := preset{mapSide: 12, r: 4, densities: []float64{1, 2, 4}, ladder: []float64{0.05, 0.10, 0.20, 0.30}, mpMaxDens: 1.1}
	if o.Full {
		p = preset{
			mapSide: 20, r: 4,
			densities: []float64{0.75, 1.5, 3, 6, 9},
			ladder:    []float64{0.025, 0.05, 0.075, 0.10, 0.15, 0.20, 0.25, 0.30},
			mpMaxDens: 5, // paper: "experiments involving MultiPathRB max out at a density of 5"
		}
	}
	reps := o.reps(2, 4)

	vs := variants(false) // Figure 7 plots MultiPathRB at t=3 only, at every scale
	tbl := Table{
		Title:  "Figure 7 — max % Byzantine tolerated for >=90% of honest nodes correct, vs density",
		Note:   fmt.Sprintf("map %.0fx%.0f, R=%.1f, %d reps; paper: NW benefits most from density, tolerating up to 25%% at high density; MP capped at density %.0f", p.mapSide, p.mapSide, p.r, reps, p.mpMaxDens),
		Header: []string{"density", "nodes"},
	}
	for _, v := range vs {
		tbl.Header = append(tbl.Header, v.label)
	}
	for _, dens := range p.densities {
		nodes := int(dens * p.mapSide * p.mapSide)
		row := []interface{}{fmt.Sprintf("%.2f", dens), nodes}
		for _, v := range vs {
			if v.proto == "MultiPathRB" && dens > p.mpMaxDens {
				row = append(row, "n/a")
				continue
			}
			maxTol := 0.0
			for _, frac := range p.ladder {
				s := Scenario{
					Name:         fmt.Sprintf("fig7/%s/d=%.2f/l=%.1f%%", v.label, dens, 100*frac),
					ProtocolName: v.proto,
					Deploy:       Uniform,
					Nodes:        nodes,
					MapSide:      p.mapSide,
					Range:        p.r,
					MsgBits:      0b1011,
					MsgLen:       4,
					Params:       v.params,
					AdversaryMix: AdversaryMix{LiarFrac: frac},
					Seed:         o.seed(),
					MaxRounds:    maxRoundsFor(v.proto, o.Full),
				}
				rs, _ := cell(s, o, reps)
				if correctOfHonest(rs) >= 90 {
					maxTol = 100 * frac
				} else {
					break // ladder is effectively monotone; stop early
				}
			}
			row = append(row, fmt.Sprintf("%.1f", maxTol))
		}
		tbl.Add(row...)
	}
	return []Table{tbl}
}

func maxRoundsFor(proto string, full bool) uint64 {
	if proto == "MultiPathRB" {
		if full {
			return 3_000_000
		}
		return 600_000
	}
	return 400_000
}
