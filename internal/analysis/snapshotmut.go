package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotMutAnalyzer enforces the paper's Property 3 (§III-A): a
// published snapshot is immutable. Buffer.Latest/Peek/WaitNewer return the
// Snapshot struct by value, but its Value commonly holds reference types
// (a *pix.Image, a slice of centroids) aliasing the publisher's memory
// — writing through them corrupts what concurrent readers and the
// conformance checksums see, silently. The analyzer taints every value
// obtained from a snapshot accessor (and every function parameter of
// Snapshot type: publish observers and AsyncConsume callbacks receive
// aliased snapshots the same way) and reports:
//
//   - writes through a tainted chain that crosses a pointer, slice, or map
//     (snap.Value.Pix[i] = x, copy(snap.Value.Pix, ..), img.SetGray ..);
//   - retaining tainted reference memory in longer-lived state (a field or
//     package variable) without an intervening clone — Property 3 holds
//     only within the publish window of a producer that reuses superseded
//     snapshots' memory (pix.Snapshotter's tile mode does, a few publishes
//     later), so code that keeps a snapshot must clone it or rely on a
//     producer that never reuses, such as sampling.TreeImage.
//
// Mutating the local Snapshot struct itself (snap.Version = 0) is
// harmless and not reported; calling a Clone/Copy-named method on the
// chain launders the taint.
var SnapshotMutAnalyzer = &Analyzer{
	Name: "snapshotmut",
	Doc: "report writes into (or retention of) memory aliased by published " +
		"snapshots (anytime automaton Property 3: snapshots are immutable)",
	Run: runSnapshotMut,
}

func runSnapshotMut(pass *Pass) (interface{}, error) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)

	// Pass 1: seed taint. Objects bound from snapshot accessors
	// (snap, ok := buf.Latest(); snap, err := buf.WaitNewer(..)) and
	// parameters of Snapshot-named type.
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok &&
					isBufferMethod(info, call, "Latest", "Peek", "WaitNewer", "Final") {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := assignedObject(info, id); obj != nil && namedName(obj.Type()) == "Snapshot" {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.FuncLit:
			taintSnapshotParams(info, n.Type, tainted)
		case *ast.FuncDecl:
			taintSnapshotParams(info, n.Type, tainted)
		}
		return true
	})

	// Pass 2: propagate taint through simple assignments (x := snap.Value,
	// img := snap.Value.Plane(0)) until a fixed point. Clone/Copy-named
	// calls launder.
	for changed := true; changed; {
		changed = false
		walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := assignedObject(info, id)
				if obj == nil || tainted[obj] {
					continue
				}
				// Any chain rooted at a tainted object taints the new
				// binding (snap2 := snap copies the struct but shares its
				// referenced Value; x := snap.Value shares it directly).
				// Over-tainting a scalar is harmless: reports still require
				// a write through reference memory.
				if root, _ := chainRoot(info, as.Rhs[i]); root != nil && tainted[root] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Pass 3: report mutations and retention.
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if root, refs := chainRoot(info, lhs); root != nil && tainted[root] && refs {
					pass.Reportf(lhs.Pos(),
						"write into memory aliased by snapshot %q: published snapshots are immutable (Property 3); clone before mutating",
						root.Name())
				}
			}
			// Retention: a tainted value that carries references (the
			// snapshot struct itself, its Value pointer, a slice inside it)
			// stored into state that outlives the frame (a field selector
			// or package-level variable).
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				root, _ := chainRoot(info, rhs)
				if root == nil || !tainted[root] || !typeCarriesRefs(typeOf(info, rhs)) {
					continue
				}
				if retentionTarget(info, n.Lhs[i]) {
					pass.Reportf(rhs.Pos(),
						"snapshot %q's referenced memory is retained beyond the publish window; clone it first unless its producer never reuses a published value",
						root.Name())
				}
			}
		case *ast.IncDecStmt:
			if root, refs := chainRoot(info, n.X); root != nil && tainted[root] && refs {
				pass.Reportf(n.Pos(),
					"write into memory aliased by snapshot %q: published snapshots are immutable (Property 3); clone before mutating",
					root.Name())
			}
		case *ast.CallExpr:
			// copy(dst, ..) and append(dst, ..) write dst's backing array.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "copy" || id.Name == "append") {
					if root, refs := chainRoot(info, n.Args[0]); root != nil && tainted[root] && refs {
						pass.Reportf(n.Pos(),
							"%s writes into memory aliased by snapshot %q: published snapshots are immutable (Property 3); clone before mutating",
							id.Name, root.Name())
					}
				}
			}
		}
		return true
	})
	return nil, nil
}

// taintSnapshotParams marks parameters whose type is (or points to) a named
// Snapshot type.
func taintSnapshotParams(info *types.Info, ft *ast.FuncType, tainted map[types.Object]bool) {
	if ft == nil || ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && namedName(obj.Type()) == "Snapshot" {
				tainted[obj] = true
			}
		}
	}
}

// assignedObject resolves the object an identifier binds (Defs for :=,
// Uses for =).
func assignedObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// chainRoot walks a selector/index/deref/call chain to its root identifier,
// reporting whether the chain crosses reference memory (a pointer, slice,
// or map step past the root — the part shared with other snapshot
// holders). A method call along the chain ends it unless the method looks
// like an accessor returning aliased memory; Clone/Copy-named methods
// explicitly launder.
func chainRoot(info *types.Info, e ast.Expr) (types.Object, bool) {
	refs := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			// Note the root itself carries no refs bit: `img = ..` rebinds
			// the variable rather than writing through it, even when img is
			// a pointer. Only selector/index/deref steps share memory.
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok {
				return v, refs
			}
			return nil, false
		case *ast.SelectorExpr:
			if stepsThroughRef(info, x.X) {
				refs = true
			}
			e = x.X
		case *ast.IndexExpr:
			if stepsThroughRef(info, x.X) {
				refs = true
			}
			e = x.X
		case *ast.StarExpr:
			refs = true
			e = x.X
		case *ast.SliceExpr:
			refs = true
			e = x.X
		case *ast.CallExpr:
			// A call along the chain ends it: Clone/Copy launder by
			// construction, and for anything else we cannot know whether
			// the result aliases the receiver, so stay quiet.
			return nil, false
		default:
			return nil, false
		}
	}
}

// typeCarriesRefs reports whether values of t share memory when copied: t
// is (or is a struct/array containing) a pointer, slice, or map.
func typeCarriesRefs(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeCarriesRefs(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return typeCarriesRefs(u.Elem())
	}
	return false
}

// stepsThroughRef reports whether accessing a member of e dereferences
// shared memory: e's type is a pointer, slice, or map.
func stepsThroughRef(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	switch types.Unalias(tv.Type).(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// retentionTarget reports whether storing into lhs outlives the current
// frame: a field of some object (selector), an index into non-local
// state, or a package-level variable.
func retentionTarget(info *types.Info, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// A field write q.snaps = .. (methods can't be assignment targets).
		return true
	case *ast.IndexExpr:
		// s.cache[k] retains; a local scratch slice does not.
		return retentionTarget(info, x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		// Package-level variables outlive everything.
		return ok && v.Parent() == v.Pkg().Scope()
	}
	return false
}
