package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"authradio/internal/core"
	"authradio/internal/sweep"
)

// This file is the bridge from declarative scenarios to internal/
// sweep's addressable cells: CellKeyFor renders every result-affecting
// scenario knob into the canonical sweep.CellKey, and SweepCells turns
// (scenario, options, reps) into the cells the work-stealing pool (and
// `rbexp serve`) executes. Everything a cell's result depends on must
// flow into the key — the cache's correctness contract is exactly
// "equal key ⇒ equal result bytes".

// CellKeyFor derives the canonical cell key for repetition rep of s.
// The adversary mix is rendered from its knob values (never from the
// free-form Label, which two different mixes could share), the params
// from a sorted key=value encoding, and the deployment from
// both its generating knobs and its content fingerprint. A scenario
// whose knobs the generators cannot take is keyed with fingerprint 0
// and not generated; running it fails in BuildWorld. s.Params must
// already carry any command-line overlay (SweepCells merges before
// calling; see cell()).
func CellKeyFor(s Scenario, o Options, rep int) sweep.CellKey {
	var fp uint64
	if d, err := s.deployment(rep); err == nil {
		fp = d.Fingerprint()
	}
	return sweep.CellKey{
		Instance:    instanceOf(s),
		Mix:         canonMix(s.AdversaryMix),
		Deploy:      canonDeploy(s),
		Fingerprint: fp,
		Rep:         rep,
		Seed:        s.Seed,
		Full:        o.Full,
		Params:      canonParams(s.Params),
		Extra:       canonExtra(s),
	}
}

// instanceOf names the protocol under test by its canonical registry
// name, so an alias, a case variant and the empty default name share
// cells with the name they resolve to. A name that resolves to nothing
// is kept as given (Build rejects it).
func instanceOf(s Scenario) string {
	name := s.ProtocolName
	if name == "" {
		name = core.DefaultProtocol
	}
	if drv, ok := core.Lookup(name); ok {
		return drv.Name()
	}
	return name
}

// g renders a float canonically: the shortest form that parses back
// to the same value.
func g(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// canonMix renders every adversary knob, zero or not, in a fixed
// order: injective over mixes, independent of the display label.
func canonMix(m AdversaryMix) string {
	return fmt.Sprintf("liar=%s,crash=%s,jam=%s/b%d/p%s,spoof=%s/b%d/p%s,churn=%s/o%d",
		g(m.LiarFrac), g(m.CrashFrac),
		g(m.JamFrac), m.JamBudget, g(m.JamProb),
		g(m.SpoofFrac), m.SpoofBudget, g(m.SpoofProb),
		g(m.ChurnFrac), m.ChurnOutage)
}

// canonDeploy renders the deployment's generating knobs (exactly the
// fields Scenario.deployment reads, minus seed and rep which are key
// fields of their own).
func canonDeploy(s Scenario) string {
	return fmt.Sprintf("kind=%d,n=%d,clusters=%d,grid=%d,side=%s,sigma=%s,range=%s",
		s.Deploy, s.Nodes, s.Clusters, s.GridW, g(s.MapSide), g(s.Sigma), g(s.Range))
}

// canonExtra renders the remaining result-determining scenario knobs:
// the message as broadcast (so a scenario that spells out the default
// message shares cells with one that leaves it unset) and the round
// cap. A message BuildWorld rejects (a MsgLen the codec refuses, or
// MsgBits without a MsgLen) is keyed by its raw fields. Protocol knobs
// reach the key through canonParams.
func canonExtra(s Scenario) string {
	bits, n := s.MsgBits, s.MsgLen
	if m, err := s.message(); err == nil {
		bits, n = m.Bits, m.Len
	}
	return fmt.Sprintf("msg=%d/%d,maxr=%d", bits, n, s.MaxRounds)
}

// canonParams renders the knob bag canonically: keys sorted and
// escaped so the ','/'=' separators stay unforgeable, each value in
// g's shortest form, so two spellings of one number (1 and 1.0, 0x10
// and 16) share a cell.
func canonParams(p core.Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = escapeParam(k) + "=" + g(p[k])
	}
	return strings.Join(parts, ",")
}

func escapeParam(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, ",", "%2C")
	return strings.ReplaceAll(s, "=", "%3D")
}

// SweepCells renders scenario s into its addressable sweep cells, one
// per repetition, with o's command-line param overlay merged in (the
// same precedence cell() has always applied: scenario defaults, then
// -param, then family presets at Build). A single-repetition batch
// with an idle worker budget spends it inside the engine
// (core.WithWorkers), which never changes results (pinned by core's
// worker-equivalence tests) — callers pooling many single-rep
// scenarios should pass o.Workers=1 and parallelize across cells
// instead.
func SweepCells(s Scenario, o Options, reps int) []sweep.Cell {
	s.Params = s.Params.Merge(o.Params)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := make([]sweep.Cell, reps)
	var opts []core.Option
	if reps == 1 && workers > 1 {
		opts = []core.Option{core.WithWorkers(workers)}
	}
	for rep := 0; rep < reps; rep++ {
		// sweep.Cell.Compute has no error path (bench/replay.go wraps it
		// as a func() core.Result), so a scenario BuildWorld rejects
		// still panics here. Repeat checks its scenario before fanning
		// out, and the figure, matrix and serve grids are built valid.
		compute := func() core.Result {
			r, err := s.run(rep, opts...)
			if err != nil {
				panic(err)
			}
			return r
		}
		cells[rep] = sweep.Cell{
			Key:     CellKeyFor(s, o, rep),
			Compute: compute,
			Label:   fmt.Sprintf("%s#%d", s.Name, rep),
		}
	}
	return cells
}
