package experiment

import "fmt"

// Drop-off tolerance thresholds: a rung counts as tolerated when at
// least dropoffDelivery percent of honest nodes complete and no
// completed node accepts a wrong message.
const dropoffDelivery = 99.0

// Dropoff is the per-family drop-off summary, the Figure 7 question —
// how much adversary does each protocol tolerate? — asked of every
// registered instance at once. For each instance it walks the adversary
// ladder in order and stops at the first rung the protocol no longer
// tolerates (delivery below the threshold, or any spurious accept); the
// row reports the last tolerated rung and where (and how hard) the
// protocol fell off. One row per instance, so the nwatch voting ladder,
// the multipath tolerance ladder and the gossip presets are directly
// comparable as "max tolerated adversary" instead of a full matrix of
// numbers. It walks MatrixGrid's cells, so every rung it runs is the
// matrix sweep's cell for that (instance, mix), and a cache warmed by
// one sweep serves the other; `rbexp -exp dropoff -json` serializes it
// byte-stably for a fixed seed.
func Dropoff(o Options) []Table {
	scens, reps := MatrixGrid(o, nil, nil)
	mixes := o.ladder()
	gridW := scens[0].GridW
	tbl := Table{
		Title: "Adversary drop-off — max tolerated ladder rung per instance",
		Note: fmt.Sprintf("%dx%d analytical grid, R=2, 4-bit message, %d reps; each instance walks the %d-rung adversary ladder in order until delivery < %.0f%% or any spurious accept; 'tolerated' is the last rung passed, 'drop-off' the first rung failed (- = the whole ladder is tolerated); src del = %% delivery within the source's live component at the drop-off rung, separating partition loss from protocol failure",
			gridW, gridW, reps, len(mixes), dropoffDelivery),
		Header: []string{"instance", "family", "tolerated", "rungs", "drop-off mix", "delivery %", "src del %", "spurious %"},
	}
	// MatrixGrid is instance-major: each instance's ladder is one block
	// of len(mixes) consecutive cells.
	for lo := 0; lo < len(scens); lo += len(mixes) {
		instance := scens[lo].ProtocolName
		tolerated := "none"
		rungs := 0
		dropMix, dropDelivery, dropSrcDel, dropSpurious := "-", "-", "-", "-"
		for _, s := range scens[lo : lo+len(mixes)] {
			_, agg := cell(s, o, reps)
			delivery := agg.CompletionPct.Mean
			spurious := 100 - agg.CorrectPct.Mean
			if delivery < dropoffDelivery || spurious > 0 {
				dropMix = s.Mix()
				dropDelivery = fmt.Sprintf("%.1f", delivery)
				dropSrcDel = fmt.Sprintf("%.1f", agg.SrcDeliveryPct.Mean)
				dropSpurious = fmt.Sprintf("%.1f", spurious)
				break
			}
			tolerated = s.Mix()
			rungs++
		}
		tbl.Add(instance, familyOf(instance), tolerated,
			fmt.Sprintf("%d/%d", rungs, len(mixes)), dropMix, dropDelivery, dropSrcDel, dropSpurious)
	}
	return []Table{tbl}
}
