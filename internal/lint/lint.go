// Package lint houses rbvet's determinism analyzers: repo-specific
// static checks that make the repro's bit-for-bit invariants —
// wall-clock never leaks into simulated rounds, map iteration order
// never reaches byte-stable output, xrand lanes never collide, and no
// *xrand.Rand crosses a worker boundary — structurally impossible to
// violate rather than merely currently absent.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// contract (Analyzer, Pass, Reportf, testdata fixtures with `// want`
// comments) without depending on it: the build environment is offline
// and the module vendors nothing, so the framework is reimplemented on
// the standard library (go/ast, go/types, and export data served by
// `go list -export`). cmd/rbvet drives these analyzers over the module.
//
// Findings are suppressed only by an explicit justified directive on
// the offending line or the line above it:
//
//	//rbvet:allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one (or naming an
// unknown analyzer) is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named determinism check, shaped like
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //rbvet:allow
	// directives.
	Name string
	// Doc is the one-paragraph contract shown by `rbvet help`.
	Doc string
	// Run inspects one package and reports findings via the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TestFile reports whether the file holding pos is a _test.go file.
// Determinism invariants bind the shipped simulator, not its test
// scaffolding (which legitimately uses timeouts and ad-hoc seeds), so
// every analyzer skips test files.
func (p *Pass) TestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full rbvet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapOrder, LaneLabel, SharedRand}
}

// knownAnalyzers validates //rbvet:allow directives: a directive naming
// an analyzer outside this set is malformed even if the named check is
// not part of the current run.
func knownAnalyzers() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// directiveSet records, per file line, which analyzers an
// //rbvet:allow directive suppresses there.
type directiveSet map[int]map[string]bool

// allows reports whether analyzer a is suppressed at line: a directive
// on the finding's own line (trailing comment) or on the line directly
// above it applies.
func (d directiveSet) allows(a string, line int) bool {
	return d[line][a] || d[line-1][a]
}

const directivePrefix = "//rbvet:allow"

// parseDirectives scans a file's comments for //rbvet:allow directives.
// Malformed directives are reported through report (analyzer "rbvet").
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) directiveSet {
	known := knownAnalyzers()
	ds := make(directiveSet)
	bad := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "rbvet",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				bad(c.Pos(), "malformed directive %q: want %q", c.Text, directivePrefix+" <analyzer> <reason>")
				continue
			}
			name := fields[0]
			if !known[name] {
				bad(c.Pos(), "directive %q names unknown analyzer %q", c.Text, name)
				continue
			}
			if len(fields) < 2 {
				bad(c.Pos(), "directive %q has no reason: every suppression must be justified", c.Text)
				continue
			}
			line := fset.Position(c.Pos()).Line
			if ds[line] == nil {
				ds[line] = make(map[string]bool)
			}
			ds[line][name] = true
		}
	}
	return ds
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the canonical import path, used for scope decisions
	// (which packages are "deterministic").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies the analyzers to the package and returns the surviving
// findings (directive-suppressed ones removed, malformed directives
// added), sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	directives := make(map[string]directiveSet)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		directives[name] = parseDirectives(pkg.Fset, f, collect)
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   collect,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if ds, ok := directives[d.Pos.Filename]; ok && ds.allows(d.Analyzer, d.Pos.Line) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out, nil
}

// modulePath is the repo's module path; analyzer scopes are defined
// relative to it.
const modulePath = "authradio"

// xrandPath is the lane registry's package.
const xrandPath = modulePath + "/internal/xrand"

// inModule reports whether path is part of this module (all analyzers
// ignore other modules and the standard library).
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// deterministicScope lists the package subtrees whose code must be a
// pure function of seeds and configuration: everything the engine,
// protocols, adversaries and sweeps execute between "round r begins"
// and "experiment JSON is written". internal/lint itself (a build-time
// tool) and the cmd/ and examples/ drivers (whose UX may legitimately
// measure time) are out of scope.
var deterministicScope = []string{
	modulePath + "/internal/adversary",
	modulePath + "/internal/analysis",
	modulePath + "/internal/bitcodec",
	modulePath + "/internal/core",
	modulePath + "/internal/experiment",
	modulePath + "/internal/faultnet",
	modulePath + "/internal/geom",
	modulePath + "/internal/medium",
	modulePath + "/internal/metrics",
	modulePath + "/internal/proto",
	modulePath + "/internal/protocols",
	modulePath + "/internal/radio",
	modulePath + "/internal/schedule",
	modulePath + "/internal/sim",
	modulePath + "/internal/stats",
	modulePath + "/internal/topo",
	modulePath + "/internal/trace",
	modulePath + "/internal/xrand",
}

// deterministic reports whether the package at path is inside the
// determinism scope.
func deterministic(path string) bool {
	for _, p := range deterministicScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
