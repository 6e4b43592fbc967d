// Package lint is the repo's stdlib-only static-analysis framework:
// a tiny analyzer driver (go/parser + go/types + go/importer — no
// golang.org/x/tools, preserving the zero-dependency policy) plus the
// six project-specific analyzers behind cmd/rpmlint.
//
// The analyzers mechanically enforce invariants that earlier PRs
// established only by convention and spot tests:
//
//	detmap        — no order-sensitive map iteration in deterministic
//	                packages (PR 1: byte-identical results at any
//	                worker count).
//	nondeterm     — no clock / global-rand / environment reads in
//	                deterministic packages outside obs-recording call
//	                sites (PR 1 + PR 3).
//	errtaxonomy   — exported functions of the error-taxonomy packages
//	                (the public rpm API and the archive runner) route
//	                every returned error through their own typed
//	                *Error constructors or sentinels (PR 2, PR 9).
//	baregoroutine — no bare `go` statements outside the worker-pool /
//	                serving / obs layers, so fan-out stays cancellable
//	                and pool-accounted (PR 1 + PR 4).
//	nilsafeobs    — every exported pointer-receiver method in
//	                internal/obs begins with a nil-receiver guard
//	                (PR 3: nil handles never steer).
//	floateq       — no ==/!= between floating-point operands in
//	                non-test code, except literal-0 sentinels.
//
// A second, interprocedural tier (DESIGN.md §16) runs on top of the
// pass-1 facts engine in facts.go:
//
//	hotpathalloc  — //rpmlint:hotpath-marked functions are transitively
//	                allocation-free (PR 6 + PR 8: 0-alloc predict and
//	                stream paths), following calls across packages.
//	ctxflow       — a function holding a context passes it on: no
//	                context.Background()/TODO() outside cmd/*, no
//	                calling Foo when FooContext exists (PR 2).
//	obsnames      — every recorded metric/span name traces to a
//	                constant in the owning package's obsnames.go; no
//	                raw literals, duplicates, or dead names (PR 3).
//	faultsite     — injector call sites name declared site constants,
//	                and every declared site is exercised by the serving
//	                layer (PR 7: chaos-suite drift).
//	staleignore   — an //rpmlint:ignore that suppresses nothing is
//	                itself a diagnostic (PR 5 ledger hygiene).
//
// Deliberate exceptions are annotated in the source with
//
//	//rpmlint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a directive without one is itself a diagnostic.
//
// The driver analyzes only non-test files (go list's GoFiles), so
// _test.go files are exempt from every analyzer by construction.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Config tells the analyzers which packages play which architectural
// role. Defaults() returns this repo's wiring; tests substitute fixture
// paths.
type Config struct {
	// DeterministicPkgs are the import paths whose outputs must be
	// byte-identical run to run (detmap, nondeterm).
	DeterministicPkgs []string
	// ObsPkg is the instrumentation package: calls into it are
	// obs-recording (nondeterm exemption) and its exported
	// pointer-receiver methods must be nil-guarded (nilsafeobs).
	ObsPkg string
	// ErrTaxonomyPkgs are the packages whose exported functions must
	// route errors through their own typed taxonomy (errtaxonomy):
	// each declares its own sentinels, *Error type, and constructors,
	// and the analyzer checks every listed package against its own
	// declarations.
	ErrTaxonomyPkgs []string
	// GoroutineExemptPkgs are import paths (exact, or prefixes when
	// ending in "/") where bare `go` statements are allowed
	// (baregoroutine).
	GoroutineExemptPkgs []string
	// FaultsPkg is the fault-injection package: its Injector methods
	// are decision sites (faultsite) and facts record which functions
	// reach them.
	FaultsPkg string
	// FaultsUsePkgs are the packages (exact, or prefixes when ending in
	// "/") that must exercise every declared fault site (faultsite).
	FaultsUsePkgs []string
	// CmdPkgPrefixes are the import-path prefixes of binary entry
	// points, where creating a root context with context.Background()
	// is legitimate (ctxflow).
	CmdPkgPrefixes []string
}

// Defaults returns the repo's own role wiring.
func Defaults() Config {
	return Config{
		DeterministicPkgs: []string{
			"rpm/internal/core",
			"rpm/internal/sax",
			"rpm/internal/sequitur",
			"rpm/internal/cluster",
			"rpm/internal/features",
			"rpm/internal/svm",
			"rpm/internal/direct",
			"rpm/internal/dist",
			"rpm/internal/paa",
			"rpm/internal/stream",
			"rpm/internal/fastshapelets",
			"rpm/internal/saxvsm",
			"rpm/internal/learnshapelets",
			"rpm/internal/nn",
			"rpm/internal/stats",
			"rpm/internal/datagen",
			"rpm/internal/repair",
			"rpm/internal/ts",
		},
		ObsPkg: "rpm/internal/obs",
		ErrTaxonomyPkgs: []string{
			"rpm",
			"rpm/internal/experiments/archive",
		},
		GoroutineExemptPkgs: []string{
			"rpm/internal/parallel",
			"rpm/internal/serve", // prefix: also covers serve/client
			"rpm/internal/faults",
			"rpm/internal/obs",
			"rpm/cmd/",
		},
		FaultsPkg:      "rpm/internal/faults",
		FaultsUsePkgs:  []string{"rpm/internal/serve"},
		CmdPkgPrefixes: []string{"rpm/cmd/"},
	}
}

// deterministic reports whether path is one of the deterministic
// packages.
func (c Config) deterministic(path string) bool {
	for _, p := range c.DeterministicPkgs {
		if p == path {
			return true
		}
	}
	return false
}

// errTaxonomyChecked reports whether path's exported functions are
// held to the typed-error taxonomy.
func (c Config) errTaxonomyChecked(path string) bool {
	for _, p := range c.ErrTaxonomyPkgs {
		if p == path {
			return true
		}
	}
	return false
}

// goroutineExempt reports whether path may contain bare go statements.
func (c Config) goroutineExempt(path string) bool {
	return matchPkg(c.GoroutineExemptPkgs, path)
}

// faultsUse reports whether path belongs to the layer that must
// exercise every declared fault site.
func (c Config) faultsUse(path string) bool {
	return matchPkg(c.FaultsUsePkgs, path)
}

// cmdPkg reports whether path is a binary entry point (ctxflow's
// context.Background() exemption).
func (c Config) cmdPkg(path string) bool {
	for _, p := range c.CmdPkgPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// matchPkg matches path against entries that are exact import paths, or
// prefixes when ending in "/", or subtree roots otherwise.
func matchPkg(entries []string, path string) bool {
	for _, p := range entries {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
			continue
		}
		if p == path || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Analyzer is one named check. Run reports findings through
// pass.Reportf.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore
	// directives.
	Name string
	// Doc is a one-line description shown by rpmlint -list.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Config   Config
	Fset     *token.FileSet
	Pkg      *types.Package
	Info     *types.Info
	Files    []*ast.File

	// PkgPath is the import path of the analyzed package (Pkg.Path()
	// for source-checked targets; kept explicit for symmetry with the
	// facts indexes).
	PkgPath string

	// Facts is the pass-1 interprocedural summary over every analyzed
	// package (nil only when Run was handed no packages).
	Facts *Facts

	diags *[]Diagnostic

	// ignores is the run-wide directive index; EdgeCut consults it so
	// hotpathalloc can stop a traversal at an annotated call site.
	ignores *ignoreIndex

	// parents maps each AST node to its parent, built lazily per pass
	// for analyzers that walk upward (nondeterm's obs-call nesting).
	parents map[ast.Node]ast.Node
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// EdgeCut reports whether pos carries an //rpmlint:ignore directive for
// this analyzer (same line or the line above). hotpathalloc uses it to
// stop traversing at a reviewed boundary call — the directive counts as
// used, so staleignore stays quiet about it.
func (p *Pass) EdgeCut(pos token.Pos) bool {
	if p.ignores == nil {
		return false
	}
	position := p.Fset.Position(pos)
	return p.ignores.use(position.Filename, position.Line, p.Analyzer.Name)
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves the callee object of a call expression: the
// function or method being invoked, or nil when it cannot be resolved
// (builtins resolve to *types.Builtin).
func (p *Pass) calleeOf(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// calleePkgPath returns the import path of the package declaring the
// callee of call, or "" when unresolvable (builtins, type conversions).
func (p *Pass) calleePkgPath(call *ast.CallExpr) string {
	obj := p.calleeOf(call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if _, ok := obj.(*types.Func); !ok {
		return "" // conversion via named type, var of func type, etc.
	}
	return obj.Pkg().Path()
}

// parentOf returns the AST parent of n within this pass's files,
// building the parent map on first use.
func (p *Pass) parentOf(n ast.Node) ast.Node {
	if p.parents == nil {
		p.parents = map[ast.Node]ast.Node{}
		for _, f := range p.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					p.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return p.parents[n]
}

// enclosingFuncBody walks up from n to the body of the innermost
// enclosing function literal or declaration.
func (p *Pass) enclosingFuncBody(n ast.Node) *ast.BlockStmt {
	for cur := n; cur != nil; cur = p.parentOf(cur) {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Render formats the diagnostic with its path relative to base when
// possible, keeping file:line:col clickable from the repo root.
func (d Diagnostic) Render(base string) string {
	name := d.Pos.Filename
	if abs, err := filepath.Abs(base); err == nil {
		if rel, err := filepath.Rel(abs, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s [%s]", name, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetMap,
		NonDeterm,
		ErrTaxonomy,
		BareGoroutine,
		NilSafeObs,
		FloatEq,
		HotPathAlloc,
		CtxFlow,
		ObsNames,
		FaultSite,
		StaleIgnore,
	}
}

// Run executes the two-pass pipeline: parse every ignore directive,
// compute the pass-1 facts, run every analyzer over every package with
// the facts attached, apply //rpmlint:ignore suppression (tracking
// which directives earn their keep), report stale directives, and
// return the surviving diagnostics sorted by position.
func Run(cfg Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var ignores []*ignoreDirective
	for _, pkg := range pkgs {
		igs, bad := collectIgnores(pkg, known)
		ignores = append(ignores, igs...)
		diags = append(diags, bad...)
	}
	ix := newIgnoreIndex(ignores)
	facts := ComputeFacts(cfg, pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Name == StaleIgnore.Name {
				continue // framework-driven below, once per run
			}
			pass := &Pass{
				Analyzer: a,
				Config:   cfg,
				Fset:     pkg.Fset,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Files:    pkg.Files,
				PkgPath:  pkg.ImportPath,
				Facts:    facts,
				diags:    &diags,
				ignores:  ix,
			}
			a.Run(pass)
		}
	}
	diags = ix.suppress(diags)
	if known[StaleIgnore.Name] {
		var stale []Diagnostic
		for _, ig := range ignores {
			if ig.used {
				continue
			}
			stale = append(stale, Diagnostic{
				Analyzer: StaleIgnore.Name,
				Pos:      ig.pos,
				Message:  fmt.Sprintf("ignore directive for %q suppresses no diagnostic; remove it", ig.analyzer),
			})
		}
		diags = append(diags, ix.suppress(stale)...)
	}
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
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreDirective is one parsed //rpmlint:ignore comment. It suppresses
// diagnostics of the named analyzer on its own line and on the line
// directly below (so it can ride at end-of-line or stand above the
// offending statement). used tracks whether it suppressed anything (or
// cut a hotpathalloc edge) this run; staleignore reports the rest.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	pos      token.Position
	used     bool
}

const ignorePrefix = "//rpmlint:ignore"

// collectIgnores parses the ignore directives of one package and
// reports malformed ones (missing analyzer, unknown analyzer, missing
// reason) as diagnostics under the pseudo-analyzer name "rpmlint".
func collectIgnores(pkg *Package, known map[string]bool) ([]*ignoreDirective, []Diagnostic) {
	var igs []*ignoreDirective
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{Analyzer: "rpmlint", Pos: pkg.Fset.Position(pos), Message: msg})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //rpmlint:ignoreX — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "malformed ignore directive: missing analyzer name and reason")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), fmt.Sprintf("ignore directive names unknown analyzer %q", name))
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), fmt.Sprintf("ignore directive for %q is missing a reason", name))
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				igs = append(igs, &ignoreDirective{file: pos.Filename, line: pos.Line, analyzer: name, pos: pos})
			}
		}
	}
	return igs, bad
}

// ignoreKey addresses directives by suppression coordinates.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreIndex is the run-wide directive lookup shared by suppression
// and hotpathalloc edge cutting; both mark matched directives used.
type ignoreIndex struct {
	idx map[ignoreKey][]*ignoreDirective
}

func newIgnoreIndex(igs []*ignoreDirective) *ignoreIndex {
	ix := &ignoreIndex{idx: map[ignoreKey][]*ignoreDirective{}}
	for _, ig := range igs {
		k := ignoreKey{ig.file, ig.line, ig.analyzer}
		ix.idx[k] = append(ix.idx[k], ig)
	}
	return ix
}

// use marks (and reports) any directive covering file:line for
// analyzer — on the same line or the line directly above.
func (ix *ignoreIndex) use(file string, line int, analyzer string) bool {
	hit := false
	for _, l := range [2]int{line, line - 1} {
		for _, ig := range ix.idx[ignoreKey{file, l, analyzer}] {
			ig.used = true
			hit = true
		}
	}
	return hit
}

// suppress drops diagnostics covered by an ignore directive on the same
// or the preceding line of the same file.
func (ix *ignoreIndex) suppress(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if ix.use(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}
