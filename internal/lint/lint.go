// Package lint is scglint: a standard-library-only static-analysis
// suite enforcing the repository's cross-cutting invariants — the
// conventions the compiler cannot see but the routing, analytics and
// simulation engines rely on.
//
// Nine analyzers run over every type-checked package of the module:
//
//   - noalloc: functions annotated //scg:noalloc (the zero-alloc
//     routing kernels and their hot-path callees) must stay free of
//     heap-allocating constructs.
//   - family-exhaustive: every switch on core.Family or gens.Kind must
//     cover all enumerators or fail loudly in its default, so the ten
//     super Cayley families of the paper are handled everywhere.
//   - determinism: functions (or whole files) annotated
//     //scg:deterministic may not iterate maps, read the wall clock, or
//     draw from the global math/rand source.
//   - scratch-hygiene: Into-style and *Scratch-taking APIs must not
//     retain caller-owned buffers or leak pooled scratch memory.
//   - parallel-hygiene: goroutine literals must index shared slices by
//     goroutine-local values, and sync.Pool Get/Put/New types must
//     agree.
//   - noalloc-closure: the //scg:noalloc obligation propagates through
//     the module call graph — every module function reachable from an
//     annotated kernel must itself be annotated (or the introducing
//     call suppressed), so the AllocsPerRun==0 CI guards are
//     statically explainable end to end.
//   - atomic-hygiene: a struct field or package variable accessed
//     through sync/atomic anywhere in the module must be accessed
//     atomically everywhere; typed atomics (atomic.Int64, ...) may
//     only be touched through their methods.
//   - lock-hygiene: within a function, a held sync.Mutex/RWMutex must
//     be released on every path, must not be re-locked, and must not
//     be held across channel operations, WaitGroup.Wait, or
//     net/http/os blocking calls.
//   - obs-discipline: every obs metric is registered exactly once,
//     under a constant snake_case name, at package init or in a
//     constructor — never on a hot path.
//
// Findings can be silenced site-by-site with a reasoned suppression
// directive (see suppress.go):
//
//	//scg:ignore <rule>[,<rule>...] -- <reason>
//
// The reason is mandatory and unused suppressions are themselves
// findings, so the suppression inventory cannot rot silently.
//
// The suite is built on go/parser, go/ast, go/types and go/importer
// alone, so it runs offline with no dependency beyond the Go
// distribution.  cmd/scglint is the CLI; ci.sh gates on it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Annotation directives.  The grammar is the standard Go directive
// form — `//scg:<name>` with no space after the slashes — placed in
// the doc comment of a function declaration, or (deterministic only)
// in the comment group directly above a file's package clause, which
// marks every function in that file.
const (
	// DirectiveNoalloc marks a function that must not allocate.
	DirectiveNoalloc = "scg:noalloc"
	// DirectiveDeterministic marks a function (or file) whose output
	// must not depend on scheduling, map order, time, or hidden
	// randomness.
	DirectiveDeterministic = "scg:deterministic"
	// DirectiveIgnore suppresses named rules on one line, with a
	// mandatory reason: //scg:ignore rule1,rule2 -- reason.
	DirectiveIgnore = "scg:ignore"
)

// Finding is one rule violation: where, what, and how to fix it.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
	Hint string
}

// String renders the finding in the file:line:col style editors and CI
// logs understand.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " — fix: " + f.Hint
	}
	return s
}

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(r *Run, pkg *Package) []Finding
}

// Analyzers returns the full rule set in a fixed order.
func Analyzers() []Analyzer {
	return []Analyzer{
		{Name: "noalloc", Doc: "//scg:noalloc functions must not allocate", Run: runNoalloc},
		{Name: "family-exhaustive", Doc: "switches on core.Family / gens.Kind must cover every enumerator or fail loudly", Run: runExhaustive},
		{Name: "determinism", Doc: "//scg:deterministic code must not use map order, time.Now, or global math/rand", Run: runDeterminism},
		{Name: "scratch-hygiene", Doc: "Into/Scratch APIs must not retain or leak caller-owned buffers", Run: runScratch},
		{Name: "parallel-hygiene", Doc: "goroutines must partition shared slices; sync.Pool types must agree", Run: runParallel},
		{Name: "noalloc-closure", Doc: "//scg:noalloc propagates through the call graph: every reachable module function must be annotated", Run: runClosure},
		{Name: "atomic-hygiene", Doc: "fields accessed via sync/atomic anywhere must be accessed atomically everywhere", Run: runAtomic},
		{Name: "lock-hygiene", Doc: "held mutexes must unlock on all paths, never re-lock, never cover blocking operations", Run: runLock},
		{Name: "obs-discipline", Doc: "obs metrics are registered once, with constant snake_case names, at init or in constructors", Run: runObs},
	}
}

// RuleNames returns the analyzer names in registration order, plus the
// pseudo-rule "suppression" under which directive-hygiene findings
// (missing reason, unknown rule, unused suppression) are reported.
func RuleNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return append(out, SuppressionRule)
}

// Run is one lint invocation: the module under analysis, the packages
// being linted, the enabled rule set, and the shared cross-package
// indexes the interprocedural analyzers consult.  All indexes are
// built single-threaded before the per-package fan-out and are
// read-only afterwards, so the parallel driver is race-free.
type Run struct {
	*Module
	pkgs  []*Package
	rules map[string]bool // nil = every rule enabled

	graph   *callGraph // static module call graph (noalloc-closure)
	closure map[types.Object]*closureInfo
	atomics *atomicIndex    // atomically-accessed fields/vars (atomic-hygiene)
	metrics *metricIndex    // metric name → registration sites (obs-discipline)
	supp    *suppressionSet // //scg:ignore directives over the analyzed files
}

// enabled reports whether the named rule runs in this invocation.
func (r *Run) enabled(name string) bool { return r.rules == nil || r.rules[name] }

// newRun assembles the shared state for one lint invocation.  The
// interprocedural indexes span the union of the module's own packages
// and the analyzed set (they coincide for module runs; fixture runs
// add the fixture package on top), so a fixture package mixing plain
// and atomic access — or calling an annotated module kernel — is
// judged against the same world the module is.
func (m *Module) newRun(rules []string, pkgs []*Package) (*Run, error) {
	r := &Run{Module: m, pkgs: pkgs}
	if rules != nil {
		r.rules = map[string]bool{}
		known := map[string]bool{}
		for _, name := range RuleNames() {
			known[name] = true
		}
		for _, name := range rules {
			if !known[name] {
				return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", name, strings.Join(RuleNames(), ", "))
			}
			r.rules[name] = true
		}
	}
	scope := pkgs
	seen := map[*Package]bool{}
	for _, pkg := range pkgs {
		seen[pkg] = true
	}
	for _, pkg := range m.Pkgs {
		if !seen[pkg] {
			scope = append(scope, pkg)
		}
	}
	r.supp = scanSuppressions(m, scope, pkgs)
	if r.enabled("noalloc-closure") {
		r.graph = buildCallGraph(m, scope)
		r.closure = r.graph.noallocClosure(r)
	}
	if r.enabled("atomic-hygiene") {
		r.atomics = buildAtomicIndex(m, scope)
	}
	if r.enabled("obs-discipline") {
		r.metrics = buildMetricIndex(m, scope)
	}
	return r, nil
}

// LintRules runs the named rules (nil = all) over the given packages
// (default: the whole module), analyzing packages in parallel, and
// returns the findings sorted by position — deterministic regardless
// of scheduling.  Suppressed findings are dropped; suppression-hygiene
// findings (missing reason, unknown rule, unused directive) are
// appended when the full rule set runs.
func (m *Module) LintRules(rules []string, pkgs ...*Package) ([]Finding, error) {
	if len(pkgs) == 0 {
		pkgs = m.Pkgs
	}
	r, err := m.newRun(rules, pkgs)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers()
	results := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			var fs []Finding
			for _, a := range analyzers {
				if r.enabled(a.Name) {
					fs = append(fs, a.Run(r, pkg)...)
				}
			}
			results[i] = fs
		}(i, pkg)
	}
	wg.Wait()
	var out []Finding
	for _, fs := range results {
		out = append(out, r.supp.apply(fs)...)
	}
	if r.rules == nil && r.enabled(SuppressionRule) {
		out = append(out, r.supp.hygiene(r)...)
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file, line, column, then rule.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// hasDirective reports whether the comment group carries the directive
// (exact, or followed by free-form text after a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// indexAnnotations records every annotated function of pkg in the
// module-wide directive indexes; called once per checked package.
func (m *Module) indexAnnotations(pkg *Package) {
	for _, f := range pkg.Files {
		fileDeterministic := hasDirective(f.Doc, DirectiveDeterministic)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			m.decls[obj] = fd
			if hasDirective(fd.Doc, DirectiveNoalloc) {
				m.noalloc[obj] = true
			}
			if fileDeterministic || hasDirective(fd.Doc, DirectiveDeterministic) {
				m.deterministic[obj] = true
			}
		}
	}
}

// Noalloc reports whether fn (a *types.Func definition object) is
// annotated //scg:noalloc.
func (m *Module) Noalloc(fn types.Object) bool { return m.noalloc[fn] }

// Deterministic reports whether fn is annotated //scg:deterministic
// (directly or via its file).
func (m *Module) Deterministic(fn types.Object) bool { return m.deterministic[fn] }

// finding builds a Finding at the given node.
func (m *Module) finding(rule string, n ast.Node, msg, hint string) Finding {
	return Finding{Rule: rule, Pos: m.Fset.Position(n.Pos()), Msg: msg, Hint: hint}
}

// funcsOf yields every function declaration of pkg with a body,
// paired with its definition object.
func funcsOf(pkg *Package, yield func(obj types.Object, fd *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				yield(obj, fd)
			}
		}
	}
}

// calleeOf resolves the function object a call expression invokes:
// the *types.Func for named functions and methods, the *types.Builtin
// for builtins, nil for indirect calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	b, ok := calleeOf(info, call).(*types.Builtin)
	return ok && b.Name() == name
}

// isConversion reports whether the call expression is a type
// conversion rather than a function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// rootIdent peels selectors, indexes, slices, stars and parens off an
// expression and returns the identifier at its base, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// paramObjs collects the definition objects of a function's parameters
// and receiver.
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	if fd.Recv != nil {
		collect(fd.Recv)
	}
	collect(fd.Type.Params)
	return out
}

// namedOf unwraps a type to its *types.Named, looking through
// pointers and aliases; nil if there is none.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeKey renders a named type as "pkgpath.Name" for rule
// configuration lookups.
func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
