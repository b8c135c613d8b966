package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxScopes names the request-path packages: every function there runs on
// behalf of a client request (or of fleet machinery whose lifetime an
// operator must be able to bound), so context must flow from the edge of
// the process to every blocking operation. Fixture packages match by
// package name.
var ctxScopes = []string{
	"anytime/internal/serve",
	"anytime/internal/cluster",
	"anytime/internal/daemon",
	"anytime/internal/reqtrace",
}

// CtxFlowAnalyzer enforces end-to-end context threading in the serving
// tier (the deadline-contract analogue of the paper's interruptibility:
// a request that cannot be cancelled is a request whose deadline is a
// suggestion). In the request-path packages, non-test files must:
//
//   - never mint a root context: context.Background()/context.TODO() sever
//     the chain from the client's deadline (handlers take r.Context(),
//     library code takes a ctx parameter);
//   - never drop the cancel returned by context.WithCancel/WithTimeout/
//     WithDeadline (assigning it to _ or letting it go unused leaks the
//     child context's timer and goroutine until the parent ends);
//   - never store a context into a struct field (a stored ctx outlives the
//     request and silently revives it later; pass ctx as a parameter);
//   - thread the function's own ctx to every downstream call that accepts
//     one: passing a context not derived from the ctx parameter (or from
//     a request's .Context()) detaches the callee from the caller's
//     deadline;
//   - build outbound requests with http.NewRequestWithContext, not
//     http.NewRequest (whose Background context makes the probe or proxy
//     leg uncancellable).
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "report broken context threading in the request-path packages: " +
		"root contexts, dropped cancels, ctx struct fields, and downstream " +
		"calls that bypass the caller's ctx",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) (interface{}, error) {
	if !inScopes(pass.Pkg, ctxScopes) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		checkCtxFields(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			checkCtxFunc(pass, decl)
			return false
		})
	}
	return nil, nil
}

// checkCtxFields convicts struct types declaring a context.Context field.
func checkCtxFields(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
				pass.Reportf(field.Pos(),
					"struct field of type context.Context: a stored ctx outlives its request; pass ctx as a parameter instead")
			}
		}
		return true
	})
}

// checkCtxFunc applies the flow rules inside one function declaration.
func checkCtxFunc(pass *Pass, decl *ast.FuncDecl) {
	info := pass.TypesInfo

	// The function's context roots: ctx-typed parameters of the
	// declaration and of every function literal inside it (a literal's own
	// ctx param is that closure's inbound context — the router's upstream
	// `do: func(ctx context.Context)` shape).
	ctxParams := make(map[types.Object]bool)
	addParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					ctxParams[obj] = true
				}
			}
		}
	}
	addParams(decl.Type)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addParams(lit.Type)
		}
		return true
	})

	// Derivation taint: objects holding a context derived from a root.
	// Roots: the ctx parameters plus X.Context() method results (the
	// inbound request's context) and reqtrace.New's rewrapped context.
	st := runTaint([]*ast.File{wrapDecl(decl)}, info, taintConfig{
		rootObject: func(obj types.Object) bool { return ctxParams[obj] },
		rootCall: func(call *ast.CallExpr) []int {
			if fn := calleeMethod(info, call); fn != nil && fn.Name() == "Context" &&
				fn.Signature().Results().Len() == 1 && isContextType(fn.Signature().Results().At(0).Type()) {
				return []int{0}
			}
			return nil
		},
		passthrough: func(call *ast.CallExpr, argIdx int) []int {
			// Any call that accepts the tainted ctx and returns a context
			// derives it: context.WithCancel/WithTimeout/WithValue,
			// reqtrace.New/NewContext, custom wrappers.
			arg := call.Args[argIdx]
			if tv, ok := info.Types[arg]; !ok || !isContextType(tv.Type) {
				return nil
			}
			var out []int
			sig := callSignature(info, call)
			if sig == nil {
				return nil
			}
			for i := 0; i < sig.Results().Len(); i++ {
				if isContextType(sig.Results().At(i).Type()) {
					out = append(out, i)
				}
			}
			return out
		},
	})

	hasCtx := len(ctxParams) > 0
	cancelObjs := make(map[types.Object]bool)

	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCtxCall(pass, st, n, hasCtx)
		case *ast.AssignStmt:
			// Dropped cancel: `ctx, _ := context.WithTimeout(...)`, and
			// collection of cancel objects for the use check below.
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isWithCancelFamily(info, call) {
					checkCancelBinding(pass, info, n, call, cancelObjs)
				}
			}
			// ctx stored into a struct field.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal && isContextType(s.Obj().Type()) {
						pass.Reportf(lhs.Pos(),
							"context stored into struct field %q: a stored ctx outlives its request; pass ctx as a parameter instead", s.Obj().Name())
					}
				}
			}
		case *ast.CompositeLit:
			checkCtxCompositeLit(pass, info, n)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isWithCancelFamily(info, call) {
				pass.Reportf(call.Pos(),
					"result of %s discarded: the cancel function must be called or the child context leaks", withCancelName(info, call))
			}
		}
		return true
	})

	// Every bound cancel must be genuinely used: called, deferred, passed,
	// stored, or returned. `_ = cancel` placates the compiler but still
	// leaks the context, so blank-discarded references don't count.
	discarded := make(map[token.Pos]bool)
	ast.Inspect(decl, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		allBlank := true
		for _, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
				allBlank = false
			}
		}
		if !allBlank {
			return true
		}
		for _, rhs := range assign.Rhs {
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
				discarded[id.Pos()] = true
			}
		}
		return true
	})
	for obj := range cancelObjs {
		uses := 0
		for _, id := range st.du.uses[obj] {
			if id.Pos() != obj.Pos() && !discarded[id.Pos()] {
				uses++
			}
		}
		if uses == 0 {
			pass.Reportf(obj.Pos(),
				"cancel function %q is never called: the context from %s leaks its timer until the parent context ends", obj.Name(), "context.With*")
		}
	}
}

// checkCtxCall applies the per-call rules: root contexts, unthreaded
// contexts, and context-less request construction.
func checkCtxCall(pass *Pass, st *taintState, call *ast.CallExpr, hasCtx bool) {
	info := pass.TypesInfo
	if fn := calleePkgFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		switch fn.Name() {
		case "Background", "TODO":
			pass.Reportf(call.Pos(),
				"context.%s() in a request-path package severs the caller's deadline and cancellation: thread ctx from the request instead", fn.Name())
			return
		}
	}
	if fn := calleePkgFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "NewRequest" {
		pass.Reportf(call.Pos(),
			"http.NewRequest builds an uncancellable request: use http.NewRequestWithContext with the caller's ctx")
		return
	}
	if !hasCtx {
		return
	}
	// Threading: every ctx-typed argument must derive from this function's
	// own ctx (or an inbound request's). Root-context calls were reported
	// above; everything else untainted is a foreign or nil context. A bare
	// nil has no context type of its own, so it is caught by the parameter
	// type instead.
	sig := callSignature(info, call)
	for i, arg := range call.Args {
		if isNilIdent(arg) {
			if sig != nil && i < sig.Params().Len() && isContextType(sig.Params().At(i).Type()) {
				pass.Reportf(arg.Pos(), "nil context passed downstream: pass this function's ctx instead")
			}
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		if isRootCtxCall(info, arg) {
			continue // reported once at the Background()/TODO() site
		}
		if !st.tainted(arg) {
			pass.Reportf(arg.Pos(),
				"context not derived from this function's ctx parameter: the callee is detached from the caller's deadline and cancellation")
		}
	}
}

// checkCtxCompositeLit convicts contexts stored via composite literals:
// S{ctx: ctx} is the same escape as s.ctx = ctx.
func checkCtxCompositeLit(pass *Pass, info *types.Info, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if tv, ok := info.Types[kv.Value]; ok && isContextType(tv.Type) && !isNilIdent(kv.Value) {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						pass.Reportf(kv.Pos(),
							"context stored into struct field %q via composite literal: a stored ctx outlives its request", id.Name)
					}
				}
			}
		}
	}
}

// checkCancelBinding reports a cancel bound to the blank identifier and
// records real cancel objects for the later use check.
func checkCancelBinding(pass *Pass, info *types.Info, assign *ast.AssignStmt, call *ast.CallExpr, cancelObjs map[types.Object]bool) {
	if len(assign.Lhs) != 2 {
		return
	}
	id, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		pass.Reportf(id.Pos(),
			"cancel from %s assigned to _: the child context's timer and wakeup leak until the parent context ends", withCancelName(info, call))
		return
	}
	if obj := info.Defs[id]; obj != nil {
		cancelObjs[obj] = true
	}
}

// isWithCancelFamily reports whether call is context.WithCancel,
// WithTimeout, WithDeadline, or their *Cause variants — the constructors
// whose second result must not be dropped.
func isWithCancelFamily(info *types.Info, call *ast.CallExpr) bool {
	fn := calleePkgFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	switch fn.Name() {
	case "WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause", "WithTimeoutCause", "WithDeadlineCause":
		return true
	}
	return false
}

func withCancelName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleePkgFunc(info, call); fn != nil {
		return "context." + fn.Name()
	}
	return "context.With*"
}

// isRootCtxCall reports whether e is a direct context.Background()/TODO()
// call (reported separately).
func isRootCtxCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleePkgFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// callSignature resolves the static signature of call's callee, including
// func-typed values, or nil for builtins and conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := types.Unalias(tv.Type).Underlying().(*types.Signature)
	return sig
}

// inScopes reports whether pkg matches any of the scope paths (exact,
// prefix, or package-name match for fixtures).
func inScopes(pkg *types.Package, scopes []string) bool {
	for _, s := range scopes {
		if pkg.Path() == s || pkg.Name() == pathBase(s) {
			return true
		}
	}
	return false
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// calleePkgFunc resolves a call to a package-level function (not a method,
// not a builtin), or nil.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	case *ast.Ident:
		obj = info.Uses[f]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() != nil {
		return nil
	}
	return fn
}
