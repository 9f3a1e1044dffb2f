package experiment

import (
	"testing"

	"authradio/internal/core"
)

// TestChurnLeavesHistoricalRoleStreamsUnchanged pins the append-only
// contract of roles(): adding a churn fraction to an existing mix must
// not move any previously-assigned role, because churners draw from the
// role RNG stream strictly after liars, jammers, crashers and spoofers.
func TestChurnLeavesHistoricalRoleStreamsUnchanged(t *testing.T) {
	base := tiny()
	base.LiarFrac = 0.10
	base.JamFrac = 0.05
	base.CrashFrac = 0.05
	base.SpoofFrac = 0.05

	churned := base
	churned.ChurnFrac = 0.10
	churned.ChurnOutage = 8

	for rep := 0; rep < 5; rep++ {
		d := mustDeploy(t, base, rep)
		src := d.CenterNode()
		before := base.roles(d, src, rep)
		after := churned.roles(d, src, rep)
		churners := 0
		for i := range before {
			switch {
			case before[i] != core.Honest && after[i] != before[i]:
				t.Fatalf("rep %d: device %d role moved %d -> %d when churn was added",
					rep, i, before[i], after[i])
			case before[i] == core.Honest && after[i] == core.Churn:
				churners++
			case before[i] == core.Honest && after[i] != core.Honest:
				t.Fatalf("rep %d: device %d gained non-churn role %d", rep, i, after[i])
			}
		}
		if want := int(0.10*float64(d.N()) + 0.5); churners != want {
			t.Fatalf("rep %d: %d churners assigned, want %d", rep, churners, want)
		}
		if after[src] != core.Honest {
			t.Fatalf("rep %d: source churned", rep)
		}
	}
}

// TestChurnWorldWiring checks the churn rung end to end at build time:
// the scenario's churn fraction yields that many Churner wrappers, each
// with a sampled schedule whose total downtime equals the configured
// outage budget scaled by the schedule cycle.
func TestChurnWorldWiring(t *testing.T) {
	s := tiny()
	s.ChurnFrac = 0.10
	s.ChurnOutage = 4

	w, err := s.BuildWorld(0)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.10 * float64(w.Cfg.Deploy.N()))
	if len(w.Churners) != want && len(w.Churners) != want+1 {
		t.Fatalf("%d churners built, want about %d", len(w.Churners), want)
	}
	cycle := int(w.Cycle.Rounds())
	if cycle <= 0 {
		cycle = 1
	}
	for _, c := range w.Churners {
		if got, want := c.Budget(), 4*cycle; got != want {
			t.Fatalf("churner %d budget %d rounds, want %d", c.ID(), got, want)
		}
		total := uint64(0)
		for _, win := range c.Windows() {
			total += win[1] - win[0]
		}
		if total != uint64(c.Budget()) {
			t.Fatalf("churner %d windows sum to %d rounds, budget %d", c.ID(), total, c.Budget())
		}
	}
}

// TestChurnScenarioDeterministic runs a churn-rung scenario twice and
// requires identical results, and checks the partition-aware fields are
// populated: churners stay members of the live communication graph, so
// an analytical grid remains one component throughout.
func TestChurnScenarioDeterministic(t *testing.T) {
	s := tiny()
	s.ChurnFrac = 0.10
	s.ChurnOutage = 8

	a, b := mustRun(t, s, 0), mustRun(t, s, 0)
	if a != b {
		t.Fatalf("churn scenario diverged:\n%+v\n%+v", a, b)
	}
	if a.Components != 1 {
		t.Fatalf("grid with churners split into %d components, want 1", a.Components)
	}
	if a.SrcHonest == 0 || a.SrcComplete > a.SrcHonest {
		t.Fatalf("per-component delivery fields inconsistent: %+v", a)
	}
}
