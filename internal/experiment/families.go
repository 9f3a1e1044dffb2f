package experiment

import (
	"fmt"
	"strings"

	"authradio/internal/core"
)

// SweepInstances derives one scenario per registry instance name from
// base: the protocol is addressed by the instance ("GossipRB/f2p0.5"),
// the scenario name gains the instance as a suffix, and every other
// cell parameter is shared. Because the deployment cache keys on
// geometry (not protocol) and the schedule caches key on deployment
// content, all members of a family — and all families sharing a slot
// structure — reuse one world-construction pass per repetition instead
// of rebuilding deployments and greedy colourings N times.
func SweepInstances(base Scenario, instances []string) []Scenario {
	out := make([]Scenario, len(instances))
	for i, inst := range instances {
		s := base
		s.ProtocolName = inst
		if base.Name != "" {
			s.Name = base.Name + "/" + inst
		} else {
			s.Name = inst
		}
		out[i] = s
	}
	return out
}

// familyOf returns the family (driver) component of an instance name:
// the part before the '/' preset separator, or the whole name for a
// plain driver.
func familyOf(instance string) string {
	fam, _, _ := strings.Cut(instance, "/")
	return fam
}

// paperMetrics renders one aggregated cell's four paper measurements
// in sweep-table order — latency, delivery %, spurious %, energy —
// shared by the families and matrix sweeps so the two tables can
// never drift apart in formula or format.
func paperMetrics(agg Agg) (latency, delivery, spurious, energy string) {
	return fmt.Sprintf("%.0f", agg.LastCompletion.Mean),
		fmt.Sprintf("%.1f", agg.CompletionPct.Mean),
		fmt.Sprintf("%.1f", 100-agg.CorrectPct.Mean),
		fmt.Sprintf("%.0f", agg.HonestTx.Mean)
}

// FamiliesGrid enumerates the families sweep's scenarios — the shared
// 10%-liar grid crossed with the given instances (nil or empty =
// every core.Instances() entry) — and returns them with the
// per-cell repetition count. It is the single enumeration path behind
// both `rbexp -exp families` and the sweep service's families grid,
// so the CLI and the server can never drift in cell content.
func FamiliesGrid(o Options, instances []string) ([]Scenario, int) {
	gridW := 9
	if o.Full {
		gridW = 13
	}
	reps := o.reps(2, 5)
	base := Scenario{
		Name:         "families",
		Deploy:       GridDeploy,
		GridW:        gridW,
		Range:        2,
		MsgBits:      0b1011,
		MsgLen:       4,
		AdversaryMix: FamiliesMix,
		Seed:         o.seed(),
	}
	if len(instances) == 0 {
		instances = core.Instances()
	}
	scens := SweepInstances(base, instances)
	for i := range scens {
		scens[i].MaxRounds = maxRoundsFor(familyOf(scens[i].ProtocolName), o.Full)
	}
	return scens, reps
}

// Families is the protocol-family sweep: it enumerates every
// registered instance (core.Instances() — plain drivers plus each
// family preset) over one shared scenario grid with 10% lying devices,
// and reports the paper's four measurements per instance: how long the
// broadcast took (latency), the percentage of nodes that completed
// (delivery), the percentage of completed nodes accepting a wrong
// message (spurious accepts), and the number of broadcasts needed
// (energy). One table, one row per instance, so the nwatch voting
// ladder, the multipath tolerance ladder, the epidemic repeat counts
// and the gossip forwarding presets are directly comparable.
func Families(o Options) []Table {
	gridW := 9
	if o.Full {
		gridW = 13
	}
	scens, reps := FamiliesGrid(o, nil)
	tbl := Table{
		Title: "Protocol families — the four paper metrics per registered instance",
		Note: fmt.Sprintf("%dx%d analytical grid, R=2, 4-bit message, %.0f%% liars, %d reps; every core.Instances() entry: latency = mean last completion round, delivery = %% honest complete, spurious = %% of completed accepting a wrong message, energy = mean honest broadcasts",
			gridW, gridW, 100*FamiliesMix.LiarFrac, reps),
		Header: []string{"instance", "family", "latency", "delivery %", "spurious %", "energy (tx)"},
	}
	for _, s := range scens {
		_, agg := cell(s, o, reps)
		lat, del, spur, en := paperMetrics(agg)
		tbl.Add(s.ProtocolName, familyOf(s.ProtocolName), lat, del, spur, en)
	}
	return []Table{tbl}
}
