// Quickstart: broadcast a 4-bit message with NeighborWatchRB across a
// small random deployment and print who received what.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"authradio/internal/analysis"
	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/topo"
	"authradio/internal/xrand"

	// Protocol drivers register themselves; core resolves them by name.
	_ "authradio/internal/protocols"
)

func main() {
	// 1. Deploy 150 devices uniformly at random on a 12x12 map with
	//    broadcast range 3 (Euclidean), like the paper's testbeds.
	deploy := topo.Uniform(150, 12, 3, xrand.New(42))

	// 2. The message to authenticate: 4 bits, as in most of the
	//    paper's experiments.
	msg := bitcodec.NewMessage(0b1011, 4)

	// 3. Build the network: the source sits at the map center and
	//    every other device runs the NeighborWatchRB protocol.
	world, err := core.Build(core.Config{
		Deploy:       deploy,
		ProtocolName: "NeighborWatchRB",
		Msg:          msg,
		SourceID:     -1, // center node
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run until every honest device delivers (or 2M rounds pass).
	res := world.Run(2_000_000)

	fmt.Printf("message %s broadcast to %d devices\n", msg, res.Honest)
	fmt.Printf("completed: %d (%.1f%%)\n", res.Complete, 100*res.CompletionFrac())
	fmt.Printf("correct:   %d (%.1f%% of completed)\n", res.Correct, 100*res.CorrectFrac())
	fmt.Printf("finished in %d rounds using %d honest broadcasts\n",
		res.LastCompletion, res.HonestTx)

	// 5. What theory says about this configuration (analytical-model
	//    bounds from the paper, R rounded to an integer grid radius).
	r := int(deploy.R)
	fmt.Printf("\ntheory for R=%d: NW tolerates %d Byzantine devices per neighborhood,\n", r, analysis.NeighborWatchTolerance(r))
	fmt.Printf("2-vote %d, MultiPathRB %d (optimal; impossible at %d = ~%.0f%% of neighbors)\n",
		analysis.TwoVoteTolerance(r), analysis.MultiPathTolerance(r), analysis.KooBound(r),
		100*analysis.ByzantineFractionLimit(r))

	// 6. Inspect an individual device: the lowest-id completed one, so
	//    the example's output is reproducible run to run.
	ids := make([]int, 0, len(world.Nodes))
	for id := range world.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if n := world.Nodes[id]; n.Complete() {
			m, _ := n.Message()
			fmt.Printf("e.g. device %d delivered %s at round %d\n", id, m, n.CompletedAt())
			break
		}
	}
}
