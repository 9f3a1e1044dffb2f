package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"authradio/internal/xrand"
)

// LaneLabel makes lane/domain separation a checked invariant: every
// constant label word mixed into xrand.Derive or xrand.Hash64 must be a
// named Lane constant from the internal/xrand registry (the PR 1
// fading-hash lesson, where two id domains silently shared hash words).
// Within the registry itself, two Lane constants may not share a value
// and every Lane constant must appear in the Lanes table.
//
// The known-lanes table IS the registry: the analyzer links against
// xrand.Lanes, so registering a lane and teaching the linter about it
// are the same edit.
var LaneLabel = &Analyzer{
	Name: "lanelabel",
	Doc: "require constant labels at xrand.Derive/Hash64 call sites (and the incremental " +
		"HashPrefix/HashAbsorb) to be registered xrand.Lane* constants, and reject value " +
		"collisions inside the registry",
	Run: runLaneLabel,
}

func runLaneLabel(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) {
		return nil
	}
	if pass.Pkg.Path() == xrandPath {
		checkLaneRegistry(pass)
		return nil
	}
	for _, f := range pass.Files {
		if pass.TestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != xrandPath {
				return true
			}
			switch fn.Name() {
			case "Derive", "Hash64", "HashPrefix", "HashAbsorb":
				// The incremental absorbers take the same tagged label
				// words as Hash64 itself, just spread across calls.
			default:
				return true
			}
			if call.Ellipsis.IsValid() {
				return true // spread of a word slice; nothing constant to see
			}
			for _, arg := range call.Args {
				checkLabelExpr(pass, fn.Name(), arg)
			}
			return true
		})
	}
	return nil
}

func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.Info.Uses[f].(*types.Func)
		return fn
	}
	return nil
}

// checkLabelExpr checks one argument of a Derive/Hash64 call. A fully
// constant expression is a label; in a ^/|/+ combination of a constant
// tag with a variable id (the fade-hash idiom), the constant operand is
// the label. Shift counts and other inner constants are not labels.
func checkLabelExpr(pass *Pass, callee string, e ast.Expr) {
	tv, ok := pass.Info.Types[e]
	if ok && tv.Value != nil {
		val, exact := constUint64(tv.Value)
		if !exact {
			return
		}
		name, registered := xrand.Lanes[val]
		switch {
		case !registered:
			pass.Reportf(e.Pos(), "unregistered lane label %#x passed to xrand.%s: register a Lane constant in internal/xrand/lanes.go", val, callee)
		case !referencesLaneConst(pass, e):
			pass.Reportf(e.Pos(), "magic lane literal %#x passed to xrand.%s: reference the registry constant xrand.%s", val, callee, name)
		}
		return
	}
	if b, ok := e.(*ast.BinaryExpr); ok {
		switch b.Op {
		case token.XOR, token.OR, token.ADD:
			checkLabelExpr(pass, callee, b.X)
			checkLabelExpr(pass, callee, b.Y)
		}
	}
	if p, ok := e.(*ast.ParenExpr); ok {
		checkLabelExpr(pass, callee, p.X)
	}
}

// referencesLaneConst reports whether the expression mentions a Lane*
// constant from the xrand registry — the difference between
// xrand.LaneGossip (fine) and a 0x60551 literal or a private alias of
// it (flagged: the registry must stay the single source of truth).
func referencesLaneConst(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if c, ok := pass.Info.Uses[id].(*types.Const); ok &&
			c.Pkg() != nil && c.Pkg().Path() == xrandPath && strings.HasPrefix(c.Name(), "Lane") {
			found = true
		}
		return !found
	})
	return found
}

func constUint64(v constant.Value) (uint64, bool) {
	i := constant.ToInt(v)
	if i.Kind() != constant.Int {
		return 0, false
	}
	return constant.Uint64Val(i)
}

// checkLaneRegistry runs inside the xrand package itself: Lane*
// constants must have pairwise-distinct values and each must appear in
// the Lanes table. (The table cannot disagree the other way: map
// literals reject duplicate constant keys at compile time.)
func checkLaneRegistry(pass *Pass) {
	type lane struct {
		name string
		pos  token.Pos
		val  uint64
	}
	var lanes []lane
	tableVals := map[uint64]bool{}
	tableFound := false

	for _, f := range pass.Files {
		if pass.TestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if gd.Tok == token.CONST {
						for _, n := range s.Names {
							if !strings.HasPrefix(n.Name, "Lane") {
								continue
							}
							c, ok := pass.Info.Defs[n].(*types.Const)
							if !ok {
								continue
							}
							if v, exact := constUint64(c.Val()); exact {
								lanes = append(lanes, lane{name: n.Name, pos: n.Pos(), val: v})
							}
						}
					}
					if gd.Tok == token.VAR && len(s.Names) == 1 && s.Names[0].Name == "Lanes" && len(s.Values) == 1 {
						if cl, ok := s.Values[0].(*ast.CompositeLit); ok {
							tableFound = true
							for _, elt := range cl.Elts {
								kv, ok := elt.(*ast.KeyValueExpr)
								if !ok {
									continue
								}
								if tv, ok := pass.Info.Types[kv.Key]; ok && tv.Value != nil {
									if v, exact := constUint64(tv.Value); exact {
										tableVals[v] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}

	sort.Slice(lanes, func(i, j int) bool { return lanes[i].pos < lanes[j].pos })
	first := map[uint64]string{}
	for _, l := range lanes {
		if prev, dup := first[l.val]; dup {
			pass.Reportf(l.pos, "lane value %#x of %s collides with %s: every lane needs a fresh value", l.val, l.name, prev)
		} else {
			first[l.val] = l.name
		}
	}
	if !tableFound && len(lanes) > 0 {
		pass.Reportf(lanes[0].pos, "no Lanes table found: the registry map is the analyzer's known-lanes source")
		return
	}
	for _, l := range lanes {
		if !tableVals[l.val] {
			pass.Reportf(l.pos, "lane constant %s is not listed in the Lanes table", l.name)
		}
	}
}
