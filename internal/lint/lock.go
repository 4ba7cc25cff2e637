package lint

// lock-hygiene — held mutexes must be released on every path, never
// re-acquired, and never held across blocking operations.
//
// The analyzer is a per-function syntactic abstract interpretation:
// lock identity is the printed receiver expression (b.mu, sh.mu, ...),
// verified by type to be a sync.Mutex or sync.RWMutex method call.
// Branches (if/switch/select) are analyzed on state copies and merged
// by union — holding on *some* path is holding; paths that return drop
// out of the merge.  Loops are analyzed single-pass.  Function
// literals are independent goroutine bodies and get fresh state.
//
// Blocking operations under a held lock: channel sends and receives
// (unless inside a select that has a default clause — the non-blocking
// try-send idiom), range over a channel,
// sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep, and any call into
// net, net/http, os, or os/exec.
//
// Known limits, by design: the analysis is intra-procedural (a callee
// that blocks or locks the same mutex is not seen — the deadlock
// analyzer of last resort remains the race detector), TryLock results
// are ignored, and lock identity is textual, so two names for one
// mutex are two locks.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockOps maps sync method FullNames to their effect on the receiver's
// lock state.
var lockOps = map[string]string{
	"(*sync.Mutex).Lock":      "lock",
	"(*sync.Mutex).Unlock":    "unlock",
	"(*sync.RWMutex).Lock":    "lock",
	"(*sync.RWMutex).Unlock":  "unlock",
	"(*sync.RWMutex).RLock":   "rlock",
	"(*sync.RWMutex).RUnlock": "unlock",
}

func runLock(r *Run, pkg *Package) []Finding {
	var out []Finding
	funcsOf(pkg, func(obj types.Object, fd *ast.FuncDecl) {
		checkLockBody(r, pkg, fd.Name, fd.Body, &out)
	})
	return out
}

// checkLockBody analyzes one function (or function literal) body with
// fresh lock state, anchoring the fall-off-the-end check at anchor.
func checkLockBody(r *Run, pkg *Package, anchor ast.Node, body *ast.BlockStmt, out *[]Finding) {
	lc := &lockChecker{
		r:        r,
		info:     pkg.Info,
		pkg:      pkg,
		out:      out,
		held:     map[string]string{},
		deferred: map[string]bool{},
	}
	if !lc.stmts(body.List) {
		lc.checkExit(anchor, "function ends")
	}
}

type lockChecker struct {
	r        *Run
	info     *types.Info
	pkg      *Package
	out      *[]Finding
	held     map[string]string // receiver expr → "lock" | "rlock"
	deferred map[string]bool   // receiver exprs with a deferred unlock
}

func (lc *lockChecker) report(n ast.Node, msg, hint string) {
	*lc.out = append(*lc.out, lc.r.finding("lock-hygiene", n, msg, hint))
}

// checkExit reports every lock still held at an exit point that has no
// deferred unlock.
func (lc *lockChecker) checkExit(n ast.Node, what string) {
	var keys []string
	for key := range lc.held {
		if !lc.deferred[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		lc.report(n, fmt.Sprintf("%s with %s still held and no deferred unlock", what, key),
			"unlock on every path, or defer the unlock at acquisition")
	}
}

// stmts runs the statement list; true means every path through it
// returned.
func (lc *lockChecker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if lc.stmt(s) {
			return true
		}
	}
	return false
}

// stmt interprets one statement, mutating lc.held; true means the
// statement terminates the enclosing path (return / branch out).
func (lc *lockChecker) stmt(s ast.Stmt) bool {
	switch x := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		lc.scan(x.X)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			lc.scan(e)
		}
		for _, e := range x.Lhs {
			lc.scan(e)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		lc.scanAll(s)
	case *ast.SendStmt:
		lc.scan(x.Chan)
		lc.scan(x.Value)
		lc.blocking(x, "channel send")
	case *ast.DeferStmt:
		lc.deferStmt(x)
	case *ast.GoStmt:
		for _, arg := range x.Call.Args {
			lc.scan(arg)
		}
		if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
			checkLockBody(lc.r, lc.pkg, lit, lit.Body, lc.out)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			lc.scan(e)
		}
		lc.checkExit(x, "returns")
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this path; the loop-level merge
		// already unions the state reached so far.
		return true
	case *ast.BlockStmt:
		return lc.stmts(x.List)
	case *ast.LabeledStmt:
		return lc.stmt(x.Stmt)
	case *ast.IfStmt:
		return lc.ifStmt(x)
	case *ast.ForStmt:
		lc.stmt(x.Init)
		if x.Cond != nil {
			lc.scan(x.Cond)
		}
		lc.loopBody(func() { lc.stmts(x.Body.List); lc.stmt(x.Post) })
	case *ast.RangeStmt:
		lc.scan(x.X)
		if t := lc.info.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				lc.blocking(x, "range over a channel")
			}
		}
		lc.loopBody(func() { lc.stmts(x.Body.List) })
	case *ast.SelectStmt:
		return lc.selectStmt(x)
	case *ast.SwitchStmt:
		lc.stmt(x.Init)
		if x.Tag != nil {
			lc.scan(x.Tag)
		}
		return lc.caseBranches(x.Body)
	case *ast.TypeSwitchStmt:
		lc.stmt(x.Init)
		lc.stmt(x.Assign)
		return lc.caseBranches(x.Body)
	default:
		lc.scanAll(s)
	}
	return false
}

// scanAll scans every expression under a statement we have no special
// handling for.
func (lc *lockChecker) scanAll(s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			lc.scan(e)
			return false
		}
		return true
	})
}

// loopBody analyzes a loop body on the current state and unions the
// result back in: the body runs zero or more times.
func (lc *lockChecker) loopBody(run func()) {
	before := copyLockState(lc.held)
	run()
	for key, kind := range before {
		if _, ok := lc.held[key]; !ok {
			lc.held[key] = kind
		}
	}
}

func (lc *lockChecker) ifStmt(x *ast.IfStmt) bool {
	lc.stmt(x.Init)
	lc.scan(x.Cond)
	saved := copyLockState(lc.held)
	termThen := lc.stmts(x.Body.List)
	thenState := lc.held
	lc.held = saved
	termElse := false
	if x.Else != nil {
		termElse = lc.stmt(x.Else)
	}
	return lc.mergeBranches(
		[]map[string]string{thenState, lc.held},
		[]bool{termThen, termElse},
		x.Else != nil)
}

func (lc *lockChecker) selectStmt(x *ast.SelectStmt) bool {
	hasDefault := false
	for _, clause := range x.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	saved := copyLockState(lc.held)
	var states []map[string]string
	var terms []bool
	for _, clause := range x.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		lc.held = copyLockState(saved)
		if cc.Comm != nil {
			lc.commOp(cc.Comm, hasDefault)
		}
		terms = append(terms, lc.stmts(cc.Body))
		states = append(states, lc.held)
	}
	if len(states) == 0 {
		// Empty select blocks forever.
		lc.held = saved
		lc.blocking(x, "empty select")
		return false
	}
	return lc.mergeBranches(states, terms, true)
}

// commOp interprets a select communication clause.  With a default
// clause present the select never blocks, so the comm ops are exempt
// from the blocking check — the guarded try-send idiom.
func (lc *lockChecker) commOp(comm ast.Stmt, hasDefault bool) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		lc.scan(c.Chan)
		lc.scan(c.Value)
		if !hasDefault {
			lc.blocking(c, "channel send")
		}
	case *ast.ExprStmt, *ast.AssignStmt:
		ast.Inspect(comm, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				lc.scan(u.X)
				if !hasDefault {
					lc.blocking(u, "channel receive")
				}
				return false
			}
			return true
		})
	}
}

func (lc *lockChecker) caseBranches(body *ast.BlockStmt) bool {
	saved := copyLockState(lc.held)
	var states []map[string]string
	var terms []bool
	exhaustive := false
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			exhaustive = true // default case present
		}
		lc.held = copyLockState(saved)
		for _, e := range cc.List {
			lc.scan(e)
		}
		terms = append(terms, lc.stmts(cc.Body))
		states = append(states, lc.held)
	}
	if !exhaustive {
		// The no-case-matched fall-through path.
		states = append(states, saved)
		terms = append(terms, false)
	}
	if len(states) == 0 {
		lc.held = saved
		return false
	}
	return lc.mergeBranches(states, terms, exhaustive)
}

// mergeBranches unions the non-terminated branch states into lc.held;
// true when every branch terminated and the branch set was exhaustive.
func (lc *lockChecker) mergeBranches(states []map[string]string, terms []bool, exhaustive bool) bool {
	merged := map[string]string{}
	live := 0
	for i, st := range states {
		if i < len(terms) && terms[i] {
			continue
		}
		live++
		for key, kind := range st {
			if _, ok := merged[key]; !ok {
				merged[key] = kind
			}
		}
	}
	lc.held = merged
	return exhaustive && live == 0
}

// deferStmt records deferred unlocks and analyzes deferred literals.
func (lc *lockChecker) deferStmt(x *ast.DeferStmt) {
	for _, arg := range x.Call.Args {
		lc.scan(arg)
	}
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		checkLockBody(lc.r, lc.pkg, lit, lit.Body, lc.out)
		return
	}
	if op, key, ok := lc.lockOp(x.Call); ok && op == "unlock" {
		lc.deferred[key] = true
	}
}

// scan walks an expression for lock operations, blocking operations,
// and function literals (which get fresh state).
func (lc *lockChecker) scan(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkLockBody(lc.r, lc.pkg, x, x.Body, lc.out)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				lc.blocking(x, "channel receive")
			}
		case *ast.CallExpr:
			lc.call(x)
		}
		return true
	})
}

// call applies a call's lock-state effect or blocking classification.
func (lc *lockChecker) call(call *ast.CallExpr) {
	if op, key, ok := lc.lockOp(call); ok {
		switch op {
		case "lock", "rlock":
			if prev, held := lc.held[key]; held {
				verb := "locked"
				if prev == "rlock" {
					verb = "read-locked"
				}
				lc.report(call, fmt.Sprintf("%s acquired while already %s on this path", key, verb),
					"a sync mutex is not reentrant; restructure so each path locks once")
			}
			lc.held[key] = op
		case "unlock":
			delete(lc.held, key)
		}
		return
	}
	if desc := blockingDesc(lc.info, call); desc != "" {
		lc.blocking(call, desc)
	}
}

// lockOp classifies a call as a mutex operation on a printed receiver.
func (lc *lockChecker) lockOp(call *ast.CallExpr) (op, key string, ok bool) {
	fn, isFn := calleeOf(lc.info, call).(*types.Func)
	if !isFn {
		return "", "", false
	}
	op, isOp := lockOps[fn.FullName()]
	if !isOp {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return op, types.ExprString(ast.Unparen(sel.X)), true
}

// blocking reports a blocking operation if any lock is held.
func (lc *lockChecker) blocking(n ast.Node, desc string) {
	var keys []string
	for key := range lc.held {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		lc.report(n, fmt.Sprintf("%s held across %s", key, desc),
			"release the lock before blocking, or make the operation non-blocking (select with default)")
	}
}

// blockingDesc classifies calls that can block indefinitely: WaitGroup
// and Cond waits, sleeps, and anything into net/http/os territory.
func blockingDesc(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok {
		return ""
	}
	switch fn.FullName() {
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait"
	case "(*sync.Cond).Wait":
		return "sync.Cond.Wait"
	case "time.Sleep":
		return "time.Sleep"
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "net", "net/http", "os", "os/exec":
			return "call to " + pkg.Path() + "." + fn.Name()
		}
	}
	return ""
}

// copyLockState clones a lock-state map.
func copyLockState(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
