// Jamming (the paper's Section 6.1 jamming experiment, in miniature):
// 10% of devices jam the veto rounds with probability 1/5 under a
// per-device broadcast budget. The broadcast always completes and is
// never corrupted; the delay grows linearly with the budget — "damage
// caused by the Byzantine devices is proportional to the amount of
// jamming".
//
//	go run ./examples/jamming
package main

import (
	"fmt"
	"log"

	"authradio/internal/experiment"
	"authradio/internal/stats"

	// Protocol drivers register themselves; core resolves them by name.
	_ "authradio/internal/protocols"
)

func main() {
	fmt.Println("per-jammer budget vs. completion time (NeighborWatchRB)")
	fmt.Println("(180 devices, 12x12 map, R=3, 10% jammers, jam prob 1/5, 3 reps)")
	fmt.Println()
	fmt.Printf("%8s  %12s  %14s  %12s\n", "budget", "rounds", "completion %", "byz tx")

	var xs, ys []float64
	for _, budget := range []int{0, 4, 8, 16, 32} {
		s := experiment.Scenario{
			Name:         "jam",
			ProtocolName: "NeighborWatchRB",
			Deploy:       experiment.Uniform,
			Nodes:        180,
			MapSide:      12,
			Range:        3,
			MsgBits:      0b1011,
			MsgLen:       4,
			AdversaryMix: experiment.AdversaryMix{
				JamFrac:   0.10,
				JamBudget: budget,
			},
			Seed:      3,
			MaxRounds: 5_000_000,
		}
		if budget == 0 {
			// Keep the same 10% of devices out of the relay overlay so
			// every row shares the topology (budget 0 = crashed).
			s.JamFrac, s.CrashFrac = 0, 0.10
		}
		rs, err := experiment.Repeat(s, 3, 0)
		if err != nil {
			log.Fatal(err)
		}
		agg := experiment.Aggregate(rs)
		fmt.Printf("%8d  %12.0f  %14.1f  %12.0f\n",
			budget, agg.LastCompletion.Mean, agg.CompletionPct.Mean, agg.ByzTx.Mean)
		xs = append(xs, float64(budget))
		ys = append(ys, agg.LastCompletion.Mean)
	}
	slope, _, r2 := stats.LinearFit(xs, ys)
	fmt.Printf("\nlinear fit: %.0f extra rounds per unit of jam budget (r^2 = %.3f)\n", slope, r2)
}
