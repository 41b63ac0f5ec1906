// Whole-program layer: a conservative static callgraph over every loaded
// unit. Units typecheck independently against export data, so type
// identity does NOT hold across them — a *types.Named seen while checking
// package A is a different object from "the same" type seen from package
// B. Everything cross-unit therefore keys on strings: functions by
// types.Func.FullName(), methods and func values by package-path-qualified
// signature strings, func literals by file:offset.
//
// Resolution rules, most precise first:
//
//   - direct calls (ident or selector naming a *types.Func) -> that
//     function; generic instantiations collapse to their Origin
//   - interface method calls -> class-hierarchy analysis: every concrete
//     method with the same name and receiver-stripped signature string
//   - calls through func-typed values (params, fields, variables) -> every
//     address-taken function or literal in the SAME package with a
//     matching signature string (cross-package func values are dropped;
//     see the README's soundness notes)
package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Function is one function body known to the Program: a declared function
// or method, or a function literal.
type Function struct {
	Key      string // FullName for declarations, "lit:<file>:<offset>" for literals
	Pkg      *Package
	Decl     *ast.FuncDecl // nil for literals
	Lit      *ast.FuncLit  // nil for declarations
	Sig      *types.Signature
	Summary  *Summary
	testFile bool
}

// Body returns the function's statement body (never nil for Program
// functions; bodiless declarations are not collected).
func (f *Function) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Name is a short human-readable label for diagnostics: the FullName with
// the module prefix trimmed, or "func literal at file:line".
func (f *Function) Name() string {
	if f.Decl != nil {
		return trimModule(f.Key)
	}
	p := f.Pkg.Fset.Position(f.Lit.Pos())
	return fmt.Sprintf("func literal at %s:%d", shortFile(p.Filename), p.Line)
}

// Program is the whole-program view shared by every RunProgram analyzer:
// all functions with bodies, the indexes call resolution needs, and the
// per-function effect summaries.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*Function
	Order []*Function // deterministic iteration order (package, file, position)

	// methodsBySig: "MethodName|<sig>" -> concrete methods, for CHA over
	// interface calls.
	methodsBySig map[string][]*Function
	// addrTaken: "<pkgpath>|<sig>" -> functions whose address escapes in
	// that package (func refs outside call position, uncalled literals,
	// method values), for resolving calls through func-typed values.
	addrTaken map[string][]*Function

	// closes / recvs: channel key -> functions that close / receive on it.
	// closes excludes _test.go functions so test-only teardown cannot
	// manufacture findings in production code; recvs includes everything
	// because receives are only ever used as escape evidence.
	closes map[string][]*Function
	recvs  map[string][]*Function
}

// BuildProgram collects every function body in the loaded packages and
// builds the callgraph indexes and effect summaries. It is pure analysis
// over already-typechecked units — no re-parsing, no process spawning.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:         pkgs,
		Funcs:        map[string]*Function{},
		methodsBySig: map[string][]*Function{},
		addrTaken:    map[string][]*Function{},
		closes:       map[string][]*Function{},
		recvs:        map[string][]*Function{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			test := isTestFile(pkg.Fset, f)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				sig, _ := obj.Type().(*types.Signature)
				prog.add(&Function{
					Key: obj.FullName(), Pkg: pkg, Decl: fd, Sig: sig, testFile: test,
				})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				var sig *types.Signature
				if tv, ok := pkg.Info.Types[lit]; ok && tv.Type != nil {
					sig, _ = tv.Type.Underlying().(*types.Signature)
				}
				prog.add(&Function{
					Key: litKey(pkg, lit), Pkg: pkg, Lit: lit, Sig: sig, testFile: test,
				})
				return true
			})
		}
	}
	for _, fn := range prog.Order {
		if fn.Decl != nil && fn.Decl.Recv != nil && fn.Sig != nil {
			k := fn.Decl.Name.Name + "|" + sigKey(fn.Sig)
			prog.methodsBySig[k] = append(prog.methodsBySig[k], fn)
		}
	}
	for _, pkg := range pkgs {
		prog.collectAddrTaken(pkg)
	}
	buildSummaries(prog)
	return prog
}

// add registers fn, de-duplicating colliding keys (multiple init funcs,
// blank-named funcs) with a deterministic suffix.
func (prog *Program) add(fn *Function) {
	key := fn.Key
	for i := 2; prog.Funcs[key] != nil; i++ {
		key = fmt.Sprintf("%s#%d", fn.Key, i)
	}
	fn.Key = key
	prog.Funcs[key] = fn
	prog.Order = append(prog.Order, fn)
}

func litKey(pkg *Package, lit *ast.FuncLit) string {
	p := pkg.Fset.Position(lit.Pos())
	return fmt.Sprintf("lit:%s:%d", p.Filename, p.Offset)
}

func (prog *Program) litFunc(pkg *Package, lit *ast.FuncLit) *Function {
	return prog.Funcs[litKey(pkg, lit)]
}

// pathQual qualifies type names with full package paths so rendered types
// compare equal across independently typechecked units.
func pathQual(p *types.Package) string { return p.Path() }

// sigKey renders a signature's parameters and results (receiver excluded)
// with package-path qualification: the cross-unit identity for "these two
// functions are call-compatible".
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if sig.Variadic() && i == sig.Params().Len()-1 {
			b.WriteString("...")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), pathQual))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), pathQual))
	}
	b.WriteByte(')')
	return b.String()
}

// collectAddrTaken indexes functions whose address escapes in pkg: any
// reference to a declared function outside call position (including method
// values used as callbacks) and any func literal that is not invoked on
// the spot.
func (prog *Program) collectAddrTaken(pkg *Package) {
	seen := map[string]bool{} // "<sig>|<fnKey>" dedupe
	note := func(sig string, fn *Function) {
		k := pkg.Path + "|" + sig
		if fn == nil || seen[k+"|"+fn.Key] {
			return
		}
		seen[k+"|"+fn.Key] = true
		prog.addrTaken[k] = append(prog.addrTaken[k], fn)
	}
	for _, f := range pkg.Files {
		// Expressions in call position: the Fun of every call, plus the
		// selector's Sel ident (so `pkg.F()` / `x.M()` don't count as
		// address-taking F / M).
		called := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				fun := ast.Unparen(c.Fun)
				called[fun] = true
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					called[sel.Sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				if called[e] {
					return true
				}
				fn := prog.litFunc(pkg, e)
				if fn != nil && fn.Sig != nil {
					note(sigKey(fn.Sig), fn)
				}
			case *ast.Ident:
				if called[e] {
					return true
				}
				obj, ok := pkg.Info.Uses[e].(*types.Func)
				if !ok {
					return true
				}
				orig := obj.Origin()
				if fn := prog.Funcs[orig.FullName()]; fn != nil {
					if sig, ok := orig.Type().(*types.Signature); ok {
						note(sigKey(sig), fn)
					}
				}
			}
			return true
		})
	}
}

// Callees resolves a call expression to the Program functions it may
// invoke. Unresolvable calls (stdlib, externals, unknown func values)
// return nil — the callgraph silently under-approximates there, which the
// analyzers treat as "no effects".
func (prog *Program) Callees(pkg *Package, call *ast.CallExpr) []*Function {
	fun := ast.Unparen(call.Fun)
	// Conversions are not calls: `http.HandlerFunc(f)` invokes nothing.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	switch e := fun.(type) {
	case *ast.FuncLit:
		if fn := prog.litFunc(pkg, e); fn != nil {
			return []*Function{fn}
		}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			if fn := prog.Funcs[obj.Origin().FullName()]; fn != nil {
				return []*Function{fn}
			}
		case *types.Var:
			return prog.valueCallees(pkg, obj.Type())
		}
	case *ast.SelectorExpr:
		if selInfo, ok := pkg.Info.Selections[e]; ok {
			switch selInfo.Kind() {
			case types.MethodVal:
				m, _ := selInfo.Obj().(*types.Func)
				if m == nil {
					return nil
				}
				orig := m.Origin()
				if types.IsInterface(deref(selInfo.Recv())) {
					sig, _ := orig.Type().(*types.Signature)
					if sig == nil {
						return nil
					}
					return prog.methodsBySig[orig.Name()+"|"+sigKey(sig)]
				}
				if fn := prog.Funcs[orig.FullName()]; fn != nil {
					return []*Function{fn}
				}
			case types.FieldVal:
				return prog.valueCallees(pkg, selInfo.Type())
			}
			return nil
		}
		// No selection entry: qualified reference (otherpkg.F, otherpkg.V).
		switch obj := pkg.Info.Uses[e.Sel].(type) {
		case *types.Func:
			if fn := prog.Funcs[obj.Origin().FullName()]; fn != nil {
				return []*Function{fn}
			}
		case *types.Var:
			return prog.valueCallees(pkg, obj.Type())
		}
	}
	return nil
}

// valueCallees resolves a call through a func-typed value: every
// address-taken function of matching signature in the calling package.
func (prog *Program) valueCallees(pkg *Package, t types.Type) []*Function {
	if t == nil {
		return nil
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return prog.addrTaken[pkg.Path+"|"+sigKey(sig)]
}

// trimModule drops the module path prefix from a function or lock key for
// display.
func trimModule(s string) string {
	s = strings.ReplaceAll(s, "repro/", "")
	return s
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
