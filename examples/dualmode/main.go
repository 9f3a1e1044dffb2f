// Dual-mode broadcast (the paper's closing conjecture): flood the full
// message with the fast, unauthenticated epidemic protocol, and
// authenticate only a short digest with NeighborWatchRB. A receiver
// accepts the payload iff the digest of the flooded message matches the
// authenticated digest. "Good security is ensured as long as the digest
// is chosen appropriately. And as long as the digest is no more than
// 1/7 the size of the original message, the induced overhead may be
// tolerable."
//
//	go run ./examples/dualmode
package main

import (
	"fmt"
	"log"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/topo"
	"authradio/internal/xrand"

	// Protocol drivers register themselves; core resolves them by name.
	_ "authradio/internal/protocols"
)

func main() {
	payload := bitcodec.NewMessage(0xBEEF_CAFE_42, 48)
	const digestBits = 6
	digest := payload.Digest(digestBits)

	fmt.Printf("payload: %d bits, digest: %d bits (1/%d of payload)\n\n",
		payload.Len, digest.Len, payload.Len/digest.Len)

	// Phase 1: epidemic flood of the full payload. A liar floods a
	// corrupted payload at the same time.
	deploy := topo.Uniform(180, 12, 3, xrand.New(11))
	roles := make([]core.Role, deploy.N())
	liarID := 0
	if liarID == deploy.CenterNode() {
		liarID = 1
	}
	roles[liarID] = core.Liar
	fakePayload := bitcodec.NewMessage(^payload.Bits, payload.Len)

	flood, err := core.Build(core.Config{
		Deploy:       deploy,
		ProtocolName: "Epidemic",
		Msg:          payload,
		FakeMsg:      fakePayload,
		SourceID:     -1,
		Roles:        roles,
	})
	if err != nil {
		log.Fatal(err)
	}
	floodRes := flood.Run(200_000)

	// Phase 2: NeighborWatchRB broadcast of the digest over the same
	// deployment (disjoint schedule; in a deployment the two phases
	// can interleave). The liar pushes the digest of its fake payload.
	auth, err := core.Build(core.Config{
		Deploy:       deploy,
		ProtocolName: "NeighborWatchRB",
		Msg:          digest,
		FakeMsg:      fakePayload.Digest(digestBits),
		SourceID:     -1,
		Roles:        roles,
	})
	if err != nil {
		log.Fatal(err)
	}
	authRes := auth.Run(2_000_000)

	// Phase 3: each device verifies its flooded payload against its
	// authenticated digest.
	accepted, rejected, fooled := 0, 0, 0
	for id, fn := range flood.Nodes {
		an, ok := auth.Nodes[id]
		if !ok {
			continue
		}
		pm, ok1 := fn.Message()
		dm, ok2 := an.Message()
		if !ok1 || !ok2 {
			continue
		}
		if pm.Digest(digestBits).Equal(dm) {
			if pm.Equal(payload) {
				accepted++
			} else {
				fooled++ // fake payload passed the authenticated digest
			}
		} else {
			rejected++
		}
	}

	fmt.Printf("flood finished in %6d rounds (%d devices reached)\n", floodRes.EndRound, floodRes.Complete)
	fmt.Printf("digest finished in %6d rounds (%d devices reached)\n", authRes.EndRound, authRes.Complete)
	fmt.Printf("\nverification: %d accepted the true payload, %d rejected a corrupted flood, %d fooled\n",
		accepted, rejected, fooled)
	slow := float64(authRes.EndRound) / float64(floodRes.EndRound)
	fmt.Printf("dual-mode cost: %.1fx the plain flood (paper conjectures <2x at digest ~1/10)\n", slow)
	fmt.Println("\nNote: devices whose flood was corrupted REJECT rather than accept —")
	fmt.Println("authentication converts corruption into detectable loss.")
}
