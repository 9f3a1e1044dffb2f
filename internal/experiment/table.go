package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"authradio/internal/core"
	"authradio/internal/sweep"
)

// Table is a rendered experiment result: the rows the paper's figure or
// table reports, regenerated.
type Table struct {
	Title  string
	Note   string // provenance / interpretation note
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				// A row wider than the header has no column to align
				// against: render the extra cells unpadded instead of
				// panicking.
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing commas, quotes or newlines (a string -param echoed into a
// label, a note with punctuation) are quoted instead of silently
// corrupting the record structure.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSONReport is the machine-readable form of one named experiment's
// output (rbexp's -json flag): the experiment, the knobs that
// determine its content, and its rendered tables. Every cell is a
// formatted string, so for fixed knobs the serialization is
// byte-identical across runs and machines — CI diffs it against a
// golden file to pin family enumeration and metric computation. The
// overrides (Options.Reps, Params and Mixes) appear only when set.
type JSONReport struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Full       bool   `json:"full"`
	Reps       int    `json:"reps,omitempty"`
	// Params is the command-line knob bag in the cell keys' canonical
	// rendering.
	Params string `json:"params,omitempty"`
	// Mixes are the labels of the overriding adversary ladder.
	Mixes  []string    `json:"mixes,omitempty"`
	Tables []JSONTable `json:"tables"`
}

// JSONTable mirrors Table for serialization.
type JSONTable struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// WriteJSON emits the experiment's tables as one indented JSON
// document followed by a newline.
func WriteJSON(w io.Writer, experiment string, o Options, tables []Table) error {
	rep := JSONReport{
		Experiment: experiment, Seed: o.seed(), Full: o.Full,
		Reps: o.Reps, Params: canonParams(o.Params),
	}
	for _, m := range o.Mixes {
		rep.Mixes = append(rep.Mixes, m.Mix())
	}
	for _, t := range tables {
		jt := JSONTable{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows}
		if jt.Rows == nil {
			jt.Rows = [][]string{}
		}
		rep.Tables = append(rep.Tables, jt)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Options controls the scale of a named experiment.
type Options struct {
	// Full selects paper-scale parameters; the default is a reduced
	// preset that completes in seconds (for tests and benchmarks).
	Full bool
	// Seed drives all randomness. Valid seeds are 1..2^64-1: the
	// library treats 0 as 1 (so the zero Options value is runnable),
	// and both commands reject -seed 0 up front so the aliasing can
	// never silently make two flag values produce identical sweeps.
	Seed uint64
	// Reps overrides the repetition count (0 = preset default).
	Reps int
	// Workers bounds run-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Params carries command-line driver knobs (rbexp -param): they
	// overlay every cell's own Params (command line wins over the
	// scenario's defaults; family presets still pin their knobs over
	// both). nil leaves every cell untouched.
	Params core.Params
	// Mixes overrides the adversary ladder of the ladder-walking sweeps
	// (matrix, dropoff); nil selects Ladder(Full). rbexp -mixes feeds
	// it from compact labels (see ParseMixes).
	Mixes []AdversaryMix
	// Progress, if non-nil, receives one line per completed cell.
	Progress io.Writer
	// Cache, if non-nil, is the persistent sweep-cell results cache
	// (rbexp -cache): every repetition of every cell is addressed by
	// its canonical sweep.CellKey, served from the cache when present
	// and stored after computing otherwise, making any experiment
	// store-and-resume without changing its output bytes.
	Cache *sweep.Cache
	// Sweep, if non-nil, accumulates executed/hit counters across the
	// run's cells (the resume and warm-cache guarantees are asserted
	// against it).
	Sweep *sweep.Stats
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) reps(quick, full int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	if o.Full {
		return full
	}
	return quick
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Runner is a named experiment producing one or more tables.
type Runner func(Options) []Table

// Registry maps experiment names (as accepted by cmd/rbexp) to their
// runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig5":      Fig5Crash,
		"jamming":   Jamming,
		"fig6":      Fig6Lying,
		"fig7":      Fig7Density,
		"clustered": ClusteredDeployment,
		"mapsize":   MapSize,
		"epidemic":  EpidemicComparison,
		"theory":    TheoryScaling,
		"dualmode":  DualMode,
		"ablation":  Ablation,
		"dense":     Dense,
		"families":  Families,
		"matrix":    Matrix,
		"dropoff":   Dropoff,
	}
}

// Names returns the registry keys in a stable order.
func Names() []string {
	return []string{"fig5", "jamming", "fig6", "fig7", "clustered", "mapsize", "epidemic", "theory", "dualmode", "ablation", "dense", "families", "matrix", "dropoff"}
}
