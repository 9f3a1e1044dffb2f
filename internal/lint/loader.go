package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader typechecks target packages from source while importing
// their dependencies from compiler export data, exactly as cmd/vet
// does, with the export files listed by `go list -export`. Building on
// export data (rather than typechecking the whole dependency graph
// from source) keeps a full-tree run to a couple of seconds and needs
// nothing beyond the standard go/importer.

// ListedPackage is the subset of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// GoList runs `go list -e -json -export -deps` on the patterns and
// decodes the package stream.
func GoList(dir string, patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*ListedPackage
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// NewImporter returns a types.Importer that reads gc export data;
// packageFile maps import paths to export-data files.
func NewImporter(fset *token.FileSet, packageFile map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file := packageFile[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return unsafeAwareImporter{importer.ForCompiler(fset, "gc", lookup)}
}

// unsafeAwareImporter short-circuits "unsafe", which has no export
// data.
type unsafeAwareImporter struct{ types.Importer }

func (i unsafeAwareImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.Importer.Import(path)
}

// TypeCheck typechecks one package's parsed files with full types.Info.
// It checks no language version: the build already has.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	return pkg, info, err
}

// Load lists the patterns and returns each non-dependency module
// package parsed and type-checked, ready for Run.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	packageFile := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, packageFile)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		tpkg, info, err := TypeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		out = append(out, &Package{Path: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
	}
	return out, nil
}
