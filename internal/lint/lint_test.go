package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each directory
// under testdata/ is one synthetic package, type-checked under a chosen
// import path (aspath decides analyzer scope), and every expected
// finding is a `// want "regexp"` comment on the offending line.
// Unmatched wants and unexpected diagnostics both fail the test.

// wantRe extracts the quoted or backquoted patterns of a want comment.
var wantRe = regexp.MustCompile("\"([^\"]*)\"|`([^`]*)`")

type wantEntry struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func runFixture(t *testing.T, fixture, aspath string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[p] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	// Export data for whatever the fixture imports, via the real build
	// cache: the fixtures exercise the analyzers against the genuine
	// xrand registry and standard library, not mocks.
	packageFile := map[string]string{}
	if len(importSet) > 0 {
		var pats []string
		for p := range importSet {
			pats = append(pats, p)
		}
		sort.Strings(pats)
		listed, err := GoList("../..", pats...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range listed {
			if p.Export != "" {
				packageFile[p.ImportPath] = p.Export
			}
		}
	}

	tpkg, info, err := TypeCheck(fset, aspath, files, NewImporter(fset, packageFile))
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	diags, err := Run(&Package{Path: aspath, Fset: fset, Files: files, Types: tpkg, Info: info}, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("missing expected diagnostic at %s matching %q", k, w.raw)
			}
		}
	}
}

// collectWants gathers `// want` expectations keyed by "file.go:line".
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*wantEntry {
	t.Helper()
	wants := map[string][]*wantEntry{}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment with no pattern: %s", key, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &wantEntry{re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "wallclock", "authradio/internal/sim", Wallclock)
}

// The same banned calls are legal outside the deterministic scope: a
// cmd/ driver may measure wall time for its own UX.
func TestWallclockOutOfScope(t *testing.T) {
	runFixture(t, "wallclock_cmd", "authradio/cmd/rbexp", Wallclock)
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "maporder", "authradio/internal/maporderfix", MapOrder)
}

func TestLaneLabelFixture(t *testing.T) {
	runFixture(t, "lanelabel", "authradio/internal/lanefix", LaneLabel)
}

func TestLaneRegistryFixture(t *testing.T) {
	runFixture(t, "lanelabel_registry", "authradio/internal/xrand", LaneLabel)
}

func TestSharedRandFixture(t *testing.T) {
	runFixture(t, "sharedrand", "authradio/internal/randfix", SharedRand)
}

func TestAnalyzerNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
