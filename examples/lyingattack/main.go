// Lying attack (the paper's Figure 6 scenario, in miniature): a
// fraction of devices is initialised with a fake message and runs the
// protocol "correctly", trying to persuade honest devices to adopt the
// fake value. Compare how the epidemic baseline, NeighborWatchRB and
// its 2-voting variant fare as the liar fraction grows.
//
//	go run ./examples/lyingattack
package main

import (
	"fmt"
	"log"

	"authradio/internal/experiment"

	// Protocol drivers register themselves; core resolves them by name.
	_ "authradio/internal/protocols"
)

func main() {
	fmt.Println("lying devices vs. % of deliveries that are correct")
	fmt.Println("(200 devices, 12x12 map, R=4, 4-bit message, 3 reps)")
	fmt.Println()
	fmt.Printf("%8s  %10s  %16s  %10s\n", "% liars", "epidemic", "NeighborWatchRB", "NW-2vote")

	protocols := []string{"Epidemic", "NeighborWatchRB", "NeighborWatchRB-2vote"}
	for _, frac := range []float64{0, 0.05, 0.10, 0.20} {
		row := []interface{}{100 * frac}
		for _, p := range protocols {
			s := experiment.Scenario{
				Name:         "lying",
				ProtocolName: p,
				Deploy:       experiment.Uniform,
				Nodes:        200,
				MapSide:      12,
				Range:        4,
				MsgBits:      0b1011,
				MsgLen:       4,
				AdversaryMix: experiment.AdversaryMix{
					LiarFrac: frac,
				},
				Seed:      7,
				MaxRounds: 400_000,
			}
			rs, err := experiment.Repeat(s, 3, 0)
			if err != nil {
				log.Fatal(err)
			}
			agg := experiment.Aggregate(rs)
			row = append(row, agg.CorrectPct.Mean)
		}
		fmt.Printf("%8.0f  %10.1f  %16.1f  %10.1f\n", row...)
	}
	fmt.Println()
	fmt.Println("The epidemic flood believes whichever message arrives first;")
	fmt.Println("NeighborWatchRB holds until squares with honest members veto the fake.")
}
