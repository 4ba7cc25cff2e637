package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The noalloc rule.
//
// Functions annotated //scg:noalloc are the zero-allocation kernels of
// the routing and analytics hot paths (RouteInto, ReplayInto,
// UnrankInto, InverseInto, ComposeInto, ApplyInto and their callees).
// The AllocsPerRun guards in internal/core catch regressions
// dynamically for the inputs they happen to run; this rule catches
// them structurally, for every input, by banning the constructs the
// compiler lowers to heap allocation:
//
//   - make, new, and non-array composite literals
//   - append, except the amortized grow-in-place forms
//     `x = append(x, ...)` and `return append(param, ...)`
//   - function literals (closures), go, and defer
//   - string concatenation
//   - conversions of non-pointer values to interface types
//   - calls to functions that are not themselves //scg:noalloc
//
// Arguments of panic calls are exempt: a failing assertion may format
// its message, because that path never executes on a correct run.
//
// Calls outside the module are normally banned outright, with one
// carve-out: noallocRoster lists the standard-library functions known
// to be allocation-free (atomic loads/stores/adds, bit twiddling) so
// the obs increment path can be annotated and verified rather than
// silently un-annotated.

// noallocRoster is the external-callee allowlist, keyed by
// types.Func.FullName.  Entries must be trivially allocation-free —
// single-instruction atomics and pure bit arithmetic only.
var noallocRoster = map[string]bool{
	"sync/atomic.AddUint64":     true,
	"sync/atomic.LoadUint64":    true,
	"sync/atomic.StoreUint64":   true,
	"sync/atomic.AddUint32":     true,
	"sync/atomic.LoadUint32":    true,
	"sync/atomic.StoreUint32":   true,
	"sync/atomic.AddInt64":      true,
	"sync/atomic.LoadInt64":     true,
	"math/bits.Len64":           true,
	"math/bits.OnesCount64":     true,
	"math/bits.TrailingZeros64": true,
	"math/bits.LeadingZeros64":  true,

	// Typed-atomic methods: same single instructions behind a struct.
	"(*sync/atomic.Int64).Add":             true,
	"(*sync/atomic.Int64).Load":            true,
	"(*sync/atomic.Int64).Store":           true,
	"(*sync/atomic.Uint32).Load":           true,
	"(*sync/atomic.Uint64).Add":            true,
	"(*sync/atomic.Uint64).Load":           true,
	"(*sync/atomic.Uint64).Store":          true,
	"(*sync/atomic.Uint64).CompareAndSwap": true,

	// Uncontended mutex fast paths are a CAS; the slow path parks the
	// goroutine without allocating.  Rostering them lets the warm
	// cache-hit and batcher admission paths carry //scg:noalloc.
	// WaitGroup.Add and Done are one atomic add, plus a semaphore wake
	// when the count reaches zero under a waiter: the batcher's
	// in-flight count.
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	"(*sync.WaitGroup).Add":   true,
	"(*sync.WaitGroup).Done":  true,

	// Monotonic clock reads stay in the vDSO; Sub is arithmetic.
	"time.Now":        true,
	"(time.Time).Sub": true,
}

// noallocChecker walks one annotated function body.
type noallocChecker struct {
	m        *Module
	pkg      *Package
	fd       *ast.FuncDecl
	params   map[types.Object]bool
	allowed  map[*ast.CallExpr]bool // self-append calls cleared by scanAppends
	findings []Finding
}

func runNoalloc(r *Run, pkg *Package) []Finding {
	m := r.Module
	var out []Finding
	funcsOf(pkg, func(obj types.Object, fd *ast.FuncDecl) {
		if !m.Noalloc(obj) {
			return
		}
		c := &noallocChecker{
			m:       m,
			pkg:     pkg,
			fd:      fd,
			params:  paramObjs(pkg.Info, fd),
			allowed: map[*ast.CallExpr]bool{},
		}
		c.scanAppends(fd.Body)
		c.walk(fd.Body)
		out = append(out, c.findings...)
	})
	return out
}

func (c *noallocChecker) bad(n ast.Node, msg, hint string) {
	c.findings = append(c.findings, c.m.finding("noalloc", n, msg, hint))
}

// scanAppends pre-clears the append forms that amortize into
// caller-provided capacity: `x = append(x, ...)` (same expression on
// both sides) and `return append(p, ...)` where p is a parameter.
func (c *noallocChecker) scanAppends(body ast.Node) {
	info := c.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				if types.ExprString(st.Lhs[i]) == types.ExprString(call.Args[0]) {
					c.allowed[call] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && c.params[info.Uses[id]] {
					c.allowed[call] = true
				}
			}
		}
		return true
	})
}

// walk recursively checks one subtree (the body, minus panic
// arguments and flagged closures which are not descended into).
func (c *noallocChecker) walk(n ast.Node) {
	info := c.pkg.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(x)
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if _, isArray := types.Unalias(t).Underlying().(*types.Array); !isArray {
				c.bad(x, "composite literal allocates", "write into a caller-provided or scratch buffer")
				return false
			}
		case *ast.FuncLit:
			c.bad(x, "function literal allocates a closure", "hoist to a named function or method")
			return false
		case *ast.GoStmt:
			c.bad(x, "go statement allocates a goroutine", "keep kernels single-threaded; parallelize in the driver")
		case *ast.DeferStmt:
			c.bad(x, "defer allocates on some paths", "call the cleanup explicitly before each return")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				c.bad(x, "string concatenation allocates", "emit into a caller-provided byte buffer")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(info.TypeOf(x.Lhs[0])) {
				c.bad(x, "string concatenation allocates", "emit into a caller-provided byte buffer")
			}
		}
		return true
	})
}

// checkCall vets one call expression; the returned bool tells
// ast.Inspect whether to descend into the call's children.
func (c *noallocChecker) checkCall(call *ast.CallExpr) bool {
	info := c.pkg.Info
	if isConversion(info, call) {
		to := info.TypeOf(call.Fun)
		if types.IsInterface(to) && len(call.Args) == 1 && boxes(info.TypeOf(call.Args[0])) {
			c.bad(call, "interface conversion of non-pointer value allocates", "convert a pointer, or keep the concrete type")
		}
		return true
	}
	switch callee := calleeOf(info, call).(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "panic":
			// Error paths may format their message freely.
			return false
		case "make", "new":
			c.bad(call, callee.Name()+" allocates", "preallocate in the constructor or scratch value")
			return false
		case "append":
			if !c.allowed[call] {
				c.bad(call, "append outside the x = append(x, ...) form may allocate a new backing array",
					"append in place to the destination slice and return it")
			}
		}
		return true
	case *types.Func:
		if c.m.Noalloc(callee) {
			c.checkInterfaceArgs(call, callee)
			return true
		}
		if noallocRoster[callee.FullName()] {
			c.checkInterfaceArgs(call, callee)
			return true
		}
		if _, inModule := c.m.decls[callee]; inModule {
			c.bad(call, "calls "+callee.Name()+" which is not //scg:noalloc",
				"annotate (and fix) the callee, or move the call off the hot path")
		} else {
			c.bad(call, "calls "+callee.FullName()+" outside the //scg:noalloc set",
				"hot paths may only call annotated functions and alloc-free builtins")
		}
		return true
	}
	c.bad(call, "indirect call cannot be verified allocation-free", "call the kernel directly")
	return true
}

// checkInterfaceArgs flags implicit interface boxing at the arguments
// of an otherwise-approved call.
func (c *noallocChecker) checkInterfaceArgs(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	info := c.pkg.Info
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && boxes(info.TypeOf(arg)) {
			c.bad(arg, "implicit interface conversion of non-pointer value allocates", "pass a pointer or restructure the callee")
		}
	}
}

// boxes reports whether converting a value of type t to an interface
// may heap-allocate: true for concrete non-pointer types.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return false
	}
	return true
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
