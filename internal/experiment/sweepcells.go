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
// free-form Label, which two different mixes could share), the typed
// params from a sorted, type-tagged encoding, and the deployment from
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
// the message and the round cap. Protocol knobs reach the key through
// canonParams.
func canonExtra(s Scenario) string {
	return fmt.Sprintf("msg=%d/%d,maxr=%d", s.MsgBits, s.MsgLen, s.MaxRounds)
}

// canonParams renders the typed knob bag canonically: keys sorted,
// values tagged by type (b/i/f/s) so 1, 1.0, "1" and true can never
// alias, and key/value text escaped so the ','/'=' separators stay
// unforgeable.
func canonParams(p core.Params) string {
	if len(p) == 0 {
		return ""
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		var val string
		switch v := p[k].(type) {
		case bool:
			val = "b:" + strconv.FormatBool(v)
		case int:
			val = "i:" + strconv.Itoa(v)
		case float64:
			val = "f:" + g(v)
		case string:
			val = "s:" + escapeParam(v)
		default:
			val = fmt.Sprintf("v:%T:%v", v, v)
		}
		parts[i] = escapeParam(k) + "=" + val
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
	for rep := 0; rep < reps; rep++ {
		compute := func() core.Result { return s.Run(rep) }
		if reps == 1 && workers > 1 {
			compute = func() core.Result { return s.run(0, core.WithWorkers(workers)) }
		}
		cells[rep] = sweep.Cell{
			Key:     CellKeyFor(s, o, rep),
			Compute: compute,
			Label:   fmt.Sprintf("%s#%d", s.Name, rep),
		}
	}
	return cells
}
