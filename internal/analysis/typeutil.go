package analysis

import (
	"go/ast"
	"go/types"
)

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isCancelChan reports whether t is a receivable chan struct{} — the
// cancellation-channel idiom (ctx.Done()'s type).
func isCancelChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// calleeObj resolves the object a call expression invokes: the
// function or method object, or nil for indirect calls through
// function values and conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// namedOf unwraps pointers and returns the named type beneath t, or
// nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// methodOn reports whether obj is a method named name on the named
// type typeName declared in a package whose import path ends with the
// segment pkgSeg. Matching by final path segment lets the fixture
// packages stand in for the real internal packages.
func methodOn(obj types.Object, pkgSeg, typeName, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	tobj := named.Obj()
	return tobj.Name() == typeName && tobj.Pkg() != nil && lastSegment(tobj.Pkg().Path()) == pkgSeg
}

// rootObj resolves the variable or field a pool (or any receiver)
// expression denotes: the Ident's object, a field selection's field
// object, or nil when the expression is too dynamic to name.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel] // package-qualified variable
	case *ast.UnaryExpr:
		return rootObj(info, e.X)
	case *ast.StarExpr:
		return rootObj(info, e.X)
	}
	return nil
}
