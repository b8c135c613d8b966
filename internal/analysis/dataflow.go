package analysis

// dataflow.go is the suite's SSA-lite dataflow engine: def-use chains over
// the go/types-resolved AST and a taint fixpoint over them. The engine is
// deliberately flow-insensitive (an object is tainted if any assignment
// reaching it is tainted) and intraprocedural — ctxflow, its one client,
// runs it over a single function declaration at a time: a context derived
// from the request stays derived no matter the branch taken.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---- def-use chains ----

// defUse indexes one package's assignment structure: for every variable or
// struct-field object, the expressions assigned to it (defs) and, for
// tuple assignments from calls, which result index feeds it.
type defUse struct {
	info *types.Info
	// defs maps an object to every single-value expression assigned to it.
	defs map[types.Object][]ast.Expr
	// callDefs maps an object to (call, result index) pairs from
	// multi-value assignments `a, b := f()`.
	callDefs map[types.Object][]callResult
	// uses maps an object to every identifier referencing it.
	uses map[types.Object][]*ast.Ident
}

type callResult struct {
	call  *ast.CallExpr
	index int
}

// buildDefUse walks the files once and records every assignment edge:
// :=/= statements, var specs with values, and range statements (which
// assign element values whose taint is the range operand's).
func buildDefUse(files []*ast.File, info *types.Info) *defUse {
	du := &defUse{
		info:     info,
		defs:     make(map[types.Object][]ast.Expr),
		callDefs: make(map[types.Object][]callResult),
		uses:     make(map[types.Object][]*ast.Ident),
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					du.uses[obj] = append(du.uses[obj], n)
				}
			case *ast.AssignStmt:
				du.recordAssign(n.Lhs, n.Rhs, n.Tok)
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, name := range n.Names {
						lhs[i] = name
					}
					du.recordAssign(lhs, n.Values, token.DEFINE)
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					du.record(n.Value, n.X)
				}
			}
			return true
		})
	}
	return du
}

func (du *defUse) recordAssign(lhs, rhs []ast.Expr, tok token.Token) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			du.record(lhs[i], rhs[i])
			// Compound assignment (x += e) keeps x's old value in play; the
			// binop conviction logic inspects these separately.
		}
	case len(rhs) == 1:
		// Tuple assignment from a call (or map/chan/type-assert comma-ok;
		// only calls carry cross-object taint).
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			for i := range lhs {
				if obj := du.lhsObject(lhs[i]); obj != nil {
					du.callDefs[obj] = append(du.callDefs[obj], callResult{call, i})
				}
			}
		}
	}
}

func (du *defUse) record(lhs, rhs ast.Expr) {
	if obj := du.lhsObject(lhs); obj != nil {
		du.defs[obj] = append(du.defs[obj], rhs)
	}
}

// lhsObject resolves an assignment target to the object that holds the
// value: the variable for `x = e`, the field object for `s.f = e` (so a
// taint written through any instance of the struct marks the field itself
// — the package-wide approximation that lets a value parsed in one
// function be recognized in another).
func (du *defUse) lhsObject(lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := du.info.Defs[x]; obj != nil {
			return obj
		}
		return du.info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := du.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return du.info.Uses[x.Sel]
	case *ast.StarExpr:
		return du.lhsObject(x.X)
	case *ast.IndexExpr:
		return du.lhsObject(x.X)
	}
	return nil
}

// objectOf resolves a value expression to the object it reads, mirroring
// lhsObject for the use side.
func (du *defUse) objectOf(e ast.Expr) types.Object {
	return du.lhsObject(e)
}

// ---- taint fixpoint ----

// taintConfig parameterizes one taint analysis over a package.
type taintConfig struct {
	// rootCall classifies a call as a taint source, returning the tainted
	// result indices (nil = not a source).
	rootCall func(call *ast.CallExpr) []int
	// rootObject classifies an object (parameter, field) as born tainted.
	rootObject func(obj types.Object) bool
	// passthrough reports the result indices of call that become tainted
	// when the argument at argIdx is tainted (derivation functions such as
	// context.WithTimeout). nil = taint stops at the call.
	passthrough func(call *ast.CallExpr, argIdx int) []int
}

// taintState is the result of the fixpoint: the tainted objects.
type taintState struct {
	du  *defUse
	cfg taintConfig
	// objs holds the tainted variable/field objects.
	objs map[types.Object]bool
}

// runTaint computes the taint fixpoint over files.
func runTaint(files []*ast.File, info *types.Info, cfg taintConfig) *taintState {
	st := &taintState{
		du:   buildDefUse(files, info),
		cfg:  cfg,
		objs: make(map[types.Object]bool),
	}
	if cfg.rootObject != nil {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Defs[id]; obj != nil && cfg.rootObject(obj) {
					st.objs[obj] = true
				}
				return true
			})
		}
	}
	// Iterate assignments to a fixpoint: the edge set is static, so each
	// round either grows the tainted set or terminates the loop.
	for {
		changed := false
		for obj, rhss := range st.du.defs {
			if st.objs[obj] {
				continue
			}
			for _, rhs := range rhss {
				if st.tainted(rhs) {
					st.objs[obj] = true
					changed = true
					break
				}
			}
		}
		for obj, crs := range st.du.callDefs {
			if st.objs[obj] {
				continue
			}
			for _, cr := range crs {
				if st.callResultTainted(cr.call, cr.index) {
					st.objs[obj] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return st
}

// tainted reports whether e evaluates to a tainted value.
func (st *taintState) tainted(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if obj := st.du.objectOf(x); obj != nil {
			if st.objs[obj] {
				return true
			}
			if st.cfg.rootObject != nil && st.cfg.rootObject(obj) {
				return true
			}
		}
		// A selector may also read a field of a tainted struct value; field
		// objects are tracked directly, so nothing further here.
		return false
	case *ast.CallExpr:
		return st.callResultTainted(x, 0)
	case *ast.StarExpr:
		return st.tainted(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return st.tainted(x.X)
		}
		return false
	case *ast.IndexExpr:
		return st.tainted(x.X)
	case *ast.TypeAssertExpr:
		return st.tainted(x.X)
	}
	return false
}

// callResultTainted reports whether result index of call is tainted: the
// call is a configured root or a derivation over a tainted argument.
func (st *taintState) callResultTainted(call *ast.CallExpr, index int) bool {
	if st.cfg.rootCall != nil {
		for _, i := range st.cfg.rootCall(call) {
			if i == index {
				return true
			}
		}
	}
	if st.cfg.passthrough != nil {
		for argIdx, arg := range call.Args {
			if !st.tainted(arg) {
				continue
			}
			for _, i := range st.cfg.passthrough(call, argIdx) {
				if i == index {
					return true
				}
			}
		}
	}
	return false
}

// ---- shared resolution helpers ----

// isTestFile reports whether pos lies in a _test.go file. ctxflow skips
// test files: tests legitimately build root contexts.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
