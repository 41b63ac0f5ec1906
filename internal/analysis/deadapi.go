// DeadAPI reports surface under internal/ that only tests reach: an
// exported identifier no non-test file of the module uses (a reference
// from its own declaration does not count), and a field of an options or
// config struct no non-test code writes (by composite literal, assignment,
// inc/dec or &). A method is also live when a non-test call through an
// interface could reach it — same name and signature, and its receiver
// type implements the interface — or when it satisfies error or
// fmt.Stringer, which the standard library calls dynamically.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

var DeadAPI = &Analyzer{
	Name:       "deadapi",
	Doc:        "no exported identifier under internal/ that only tests use, and no options field that only tests set",
	RunProgram: runDeadAPI,
}

// objKey names an object across independently typechecked units: the
// FullName of a function or method, "<pkgpath>.<name>" of another
// package-level object, "" for anything else.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// methodKeys renders t's method set as "Name|sig" keys.
func methodKeys(t types.Type) []string {
	var keys []string
	for m := range types.NewMethodSet(t).Methods() {
		keys = append(keys, m.Obj().Name()+"|"+sigKey(m.Obj().(*types.Func).Signature()))
	}
	return keys
}

// fieldKey names field `name` of struct type t as "<pkgpath>.<Type>.<name>".
func fieldKey(t types.Type, name string) string {
	if n, ok := types.Unalias(deref(t)).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + name
	}
	return ""
}

type deadUses struct { // what non-test code references and writes
	used    map[string]bool     // objKey of every referenced object
	ifaces  map[string][]string // "<interface>.<method>" called -> the interface's method keys
	written map[string]bool     // fieldKey of every written field
}

func runDeadAPI(pass *ProgramPass) {
	u := deadUses{used: map[string]bool{}, ifaces: map[string][]string{}, written: map[string]bool{}}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			if !isTestFile(pkg.Fset, f) {
				u.collect(pkg, f)
			}
		}
	}
	for _, pkg := range pass.Prog.Pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			if !isTestFile(pkg.Fset, f) {
				u.report(pass, pkg, f)
			}
		}
	}
}

func (u *deadUses) collect(pkg *Package, f *ast.File) {
	// write marks the field x selects, walking embedded fields to the
	// struct that declares it.
	write := func(x ast.Expr) {
		sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
		if s, found := pkg.Info.Selections[sel]; ok && found && s.Kind() == types.FieldVal {
			t := s.Recv()
			for _, idx := range s.Index()[:len(s.Index())-1] {
				t = deref(t).Underlying().(*types.Struct).Field(idx).Type()
			}
			u.written[fieldKey(t, sel.Sel.Name)] = true
		}
	}
	for _, d := range f.Decls {
		var self types.Object // a function's own recursive calls do not count
		if fd, ok := d.(*ast.FuncDecl); ok {
			self = pkg.Info.Defs[fd.Name]
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.Ident:
				if obj := pkg.Info.Uses[e]; obj != nil && obj != self {
					u.used[objKey(obj)] = true
					if fn, ok := obj.(*types.Func); ok {
						if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
							u.ifaces[types.TypeString(r.Type(), pathQual)+"."+fn.Name()] = methodKeys(r.Type())
						}
					}
				}
			case *ast.CompositeLit:
				if t := pkg.Info.TypeOf(e); t != nil {
					if st, ok := deref(t).Underlying().(*types.Struct); ok {
						for i, elt := range e.Elts {
							name := st.Field(i).Name()
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								name = kv.Key.(*ast.Ident).Name
							}
							u.written[fieldKey(t, name)] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range e.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(e.X)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					write(e.X)
				}
			}
			return true
		})
	}
}

// dynamic reports whether a call through an interface could reach method
// fn, or fn satisfies error or fmt.Stringer.
func (u *deadUses) dynamic(fn *types.Func) bool {
	k := fn.Name() + "|" + sigKey(fn.Signature())
	if k == "Error|()(string)" || k == "String|()(string)" {
		return true
	}
	has := methodKeys(types.NewPointer(deref(fn.Signature().Recv().Type())))
	for called, iface := range u.ifaces {
		if strings.HasSuffix(called, "."+fn.Name()) && slices.Contains(iface, k) &&
			!slices.ContainsFunc(iface, func(m string) bool { return !slices.Contains(has, m) }) {
			return true
		}
	}
	return false
}

// report flags the dead declarations of one non-test file: exported
// package-level names, uncalled interface methods, and options fields no
// non-test code writes.
func (u *deadUses) report(pass *ProgramPass, pkg *Package, f *ast.File) {
	flag := func(id *ast.Ident) {
		if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() && !u.used[objKey(obj)] {
			pass.Reportf(pkg, id.Pos(), "%s is used only by tests, if at all: delete it, give it its caller, or allow it with the reason it stays", trimModule(objKey(obj)))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if fn, _ := pkg.Info.Defs[d.Name].(*types.Func); d.Recv == nil || fn != nil && !u.dynamic(fn) {
				flag(d.Name)
			}
			return false
		case *ast.ValueSpec:
			for _, id := range d.Names {
				flag(id)
			}
		case *ast.TypeSpec:
			flag(d.Name)
			options := d.Name.Name == "Binding" || slices.ContainsFunc([]string{"Options", "Config", "Opts", "Spec"},
				func(s string) bool { return strings.HasSuffix(d.Name.Name, s) })
			switch t := d.Type.(type) {
			case *ast.InterfaceType:
				for _, m := range t.Methods.List {
					for _, id := range m.Names {
						flag(id)
					}
				}
			case *ast.StructType:
				for _, fl := range t.Fields.List {
					for _, id := range fl.Names {
						if options && !u.written[pkg.Pkg.Path()+"."+d.Name.Name+"."+id.Name] {
							pass.Reportf(pkg, id.Pos(), "field %s.%s is set only by tests, if at all: drop the knob or give it its caller", d.Name.Name, id.Name)
						}
					}
				}
			}
			return false
		}
		return true
	})
}
