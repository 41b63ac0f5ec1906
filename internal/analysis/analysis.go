// Package analysis is a self-contained static-analysis framework for this
// repository: a loader that typechecks packages using the gc toolchain's
// export data (no external dependencies), a small analyzer interface in
// the spirit of go/analysis, and the custom analyzers behind cmd/dcfvet
// that machine-check invariants which previously lived only in READMEs and
// review memory (buffer-ownership Fresh marking, gob wire safety, test
// hygiene, context threading, panic-free hot paths, surface only tests
// reach).
//
// Suppressing a finding: add a comment on the flagged line (or the line
// directly above it) of the form
//
//	// dcfvet:allow <analyzer>=<reason>
//
// The reason is mandatory in spirit — a bare allow passes, but reviewers
// should treat one as a smell.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one named check. Per-package analyzers set Run; whole-
// program analyzers (which need the callgraph and effect summaries — see
// callgraph.go) set RunProgram instead. Exactly one must be non-nil.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass is the per-analyzer whole-program invocation context.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a finding at pos, resolved through pkg's file set.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allow is one parsed "dcfvet:allow" annotation.
type Allow struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// RunDetail applies the analyzers to the packages and returns the surviving
// findings (allow-annotated ones are dropped), sorted by position. The
// second result lists the allow annotations that suppressed nothing in this
// run (only annotations naming one of the selected analyzers are considered
// — an allow for an analyzer that did not run cannot be judged).
// cmd/dcfvet surfaces these under -unused-allows so suppressions cannot
// outlive the code they excused.
func RunDetail(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Allow) {
	var diags []Diagnostic
	needProgram := false
	for _, a := range analyzers {
		if a.RunProgram != nil {
			needProgram = true
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
		}
	}
	if needProgram {
		// The Program (callgraph + effect summaries) is built once and
		// shared by every whole-program analyzer.
		prog := BuildProgram(pkgs)
		for _, a := range analyzers {
			if a.RunProgram != nil {
				a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &diags})
			}
		}
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	diags, unused := filterAllowed(pkgs, diags, selected)
	sortDiagnostics(diags)
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i], unused[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, unused
}

// sortDiagnostics pins the reporting order: (file, line, column, analyzer,
// message). The full tiebreak chain makes runs byte-identical even when
// several analyzers fire on one line — CI failures diff cleanly.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowSite is one annotation with its coverage and use tracking.
type allowSite struct {
	allow Allow
	used  bool
}

// filterAllowed drops findings suppressed by a "dcfvet:allow <name>"
// comment on the finding's line or the line above it, and reports the
// annotations (among the selected analyzers) that suppressed nothing.
func filterAllowed(pkgs []*Package, diags []Diagnostic, selected map[string]bool) ([]Diagnostic, []Allow) {
	var sites []*allowSite
	// allowed[file][line] = annotations covering that line per analyzer.
	allowed := map[string]map[int]map[string]*allowSite{}
	note := func(file string, line int, name string, s *allowSite) {
		if allowed[file] == nil {
			allowed[file] = map[int]map[string]*allowSite{}
		}
		if allowed[file][line] == nil {
			allowed[file][line] = map[string]*allowSite{}
		}
		allowed[file][line][name] = s
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "dcfvet:allow ") {
						continue
					}
					spec := strings.TrimSpace(strings.TrimPrefix(text, "dcfvet:allow "))
					name, reason, _ := strings.Cut(spec, "=")
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					s := &allowSite{allow: Allow{Pos: pos, Analyzer: name, Reason: strings.TrimSpace(reason)}}
					sites = append(sites, s)
					// The annotation covers its own line and the next:
					// both trailing comments and line-above comments work.
					note(pos.Filename, pos.Line, name, s)
					note(pos.Filename, pos.Line+1, name, s)
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if s := allowed[d.Pos.Filename][d.Pos.Line][d.Analyzer]; s != nil {
			s.used = true
			continue
		}
		out = append(out, d)
	}
	var unused []Allow
	for _, s := range sites {
		if !s.used && selected[s.allow.Analyzer] {
			unused = append(unused, s.allow)
		}
	}
	return out, unused
}

// isTestFile reports whether the file's position is in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// namedOrPointee unwraps pointers down to the element type.
func deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// All returns every analyzer dcfvet ships, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		FreshForward,
		GobSafe,
		TestSleep,
		CtxThread,
		PanicPath,
		BackoffJitter,
		MetricName,
		LockOrder,
		GoroLeak,
		UnsafeSend,
		DeadAPI,
	}
}
