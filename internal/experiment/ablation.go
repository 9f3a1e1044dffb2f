package experiment

import (
	"fmt"

	"authradio/internal/core"
	"authradio/internal/proto/multipath"
	"authradio/internal/proto/nwatch"
)

// Ablation exercises the design choices DESIGN.md calls out:
//
//  1. The jammers' per-veto-round probability. The paper fixes 1/5 and
//     remarks "We found this probability to be approximately optimal
//     for the jammers, as it prevented too much redundant jamming."
//     Sweeping the probability at a fixed per-jammer budget shows the
//     delay per spent broadcast peaking near small probabilities and
//     degrading as simultaneous (redundant) jams waste budget.
//
//  2. NeighborWatchRB's square side. The analysis uses R/2 squares (the
//     largest guaranteeing adjacent-square communication under
//     L-infinity); the paper's implementation "assumes a (reduced)
//     square size of R/3 x R/3, in order to ensure propagation of
//     messages between any two adjacent squares" under real Euclidean
//     geometry. Under L2, R/2 squares have diagonal-adjacent devices up
//     to sqrt(2)R apart — out of range — so completion collapses, which
//     is exactly why the authors reduced the side.
//
//  3. MultiPathRB's HEARD relay cap (this implementation's one
//     scaling concession): commits need t+1 pieces of evidence, so
//     relaying more than a small multiple is pure queue pressure.
//     Sweeping the cap shows completion is insensitive once the cap
//     covers the commit requirement.
func Ablation(o Options) []Table {
	reps := o.reps(2, 6)
	seed := o.seed()

	// --- 1. Jam probability sweep -----------------------------------
	probs := []float64{0.05, 0.2, 0.5, 1.0}
	mapSide, nodes, r := 12.0, 180, 3.0
	if o.Full {
		probs = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 1.0}
		mapSide, nodes, r = 24, 800, 4
	}
	jam := Table{
		Title:  "Ablation — jammer veto-round probability (fixed budget)",
		Note:   fmt.Sprintf("NeighborWatchRB, map %.0fx%.0f, %d nodes, 10%% jammers, budget 16 each, %d reps; paper: 1/5 approximately optimal", mapSide, mapSide, nodes, reps),
		Header: []string{"jam prob", "finish round", "completion %", "byz broadcasts"},
	}
	for _, p := range probs {
		s := Scenario{
			Name:         fmt.Sprintf("ablate/jamprob=%.2f", p),
			ProtocolName: "NeighborWatchRB",
			Deploy:       Uniform,
			Nodes:        nodes,
			MapSide:      mapSide,
			Range:        r,
			MsgBits:      0b1011,
			MsgLen:       4,
			AdversaryMix: AdversaryMix{JamFrac: 0.10, JamBudget: 16, JamProb: p},
			Seed:         seed,
			MaxRounds:    10_000_000,
		}
		_, agg := cell(s, o, reps)
		jam.Add(fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.0f", agg.LastCompletion.Mean),
			agg.CompletionPct.Mean,
			fmt.Sprintf("%.0f", agg.ByzTx.Mean))
	}

	// --- 2. Square side under Euclidean geometry --------------------
	sq := Table{
		Title:  "Ablation — NeighborWatchRB square side under L2 geometry",
		Note:   "R/2 is the analytical maximum (L-infinity); under Euclidean range diagonal adjacency needs side <= R/(2*sqrt(2)) ~ R/2.83, hence the paper's R/3",
		Header: []string{"square side", "completion %", "correct %", "finish round"},
	}
	for _, div := range []float64{2, 3, 4} {
		s := Scenario{
			Name:         fmt.Sprintf("ablate/side=R/%.0f", div),
			ProtocolName: "NeighborWatchRB",
			Deploy:       Uniform,
			Nodes:        nodes,
			MapSide:      mapSide,
			Range:        r,
			MsgBits:      0b1011,
			MsgLen:       4,
			Params:       core.Params{nwatch.ParamSide: r / div},
			Seed:         seed,
			MaxRounds:    600_000,
		}
		_, agg := cell(s, o, reps)
		sq.Add(fmt.Sprintf("R/%.0f", div), agg.CompletionPct.Mean, agg.CorrectPct.Mean,
			fmt.Sprintf("%.0f", agg.LastCompletion.Mean))
	}

	// --- 3. MultiPathRB HEARD cap ------------------------------------
	mpNodes, mpSide := 120, 10.0
	if o.Full {
		mpNodes, mpSide = 300, 14
	}
	hc := Table{
		Title:  "Ablation — MultiPathRB HEARD relay cap (t=2, commits need t+1=3 evidence)",
		Note:   fmt.Sprintf("map %.0fx%.0f, %d nodes, %d reps; caps at or above ~2(t+1) should behave identically, below t+1 commits starve", mpSide, mpSide, mpNodes, reps),
		Header: []string{"heard cap", "completion %", "finish round", "honest broadcasts"},
	}
	for _, cap := range []int{1, 3, 9, 18} {
		s := Scenario{
			Name:         fmt.Sprintf("ablate/heardcap=%d", cap),
			ProtocolName: "MultiPathRB",
			Deploy:       Uniform,
			Nodes:        mpNodes,
			MapSide:      mpSide,
			Range:        3,
			MsgBits:      0b1011,
			MsgLen:       3,
			Params:       core.Params{multipath.ParamT: 2, multipath.ParamHeardCap: float64(cap)},
			Seed:         seed,
			MaxRounds:    4_000_000,
		}
		_, agg := cell(s, o, reps)
		hc.Add(cap, agg.CompletionPct.Mean,
			fmt.Sprintf("%.0f", agg.LastCompletion.Mean),
			fmt.Sprintf("%.0f", agg.HonestTx.Mean))
	}
	return []Table{jam, sq, hc}
}
