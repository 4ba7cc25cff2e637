package supercayley_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mainPackages are the binaries the module ships: every function they
// link counts as used.  "bench" is built from its own module.
var mainPackages = []string{
	"cmd/scg",
	"cmd/experiments",
	"cmd/scglint",
	"examples/allreduce",
	"examples/broadcast",
	"examples/embedding",
	"examples/emulation",
	"examples/quickstart",
	"bench",
}

// TestEveryFunctionLinked keeps every non-test function in some
// binary.  It builds the main packages with inlining off (so inlined
// callees keep their symbols), lists their supercayley text symbols
// with `go tool nm`, and subtracts them from the functions declared in
// non-test files.  What remains must be exactly the entries of
// testdata/unlinked.txt, each with a reason.  It shells out to the
// toolchain, so it runs with the slow golden tests.
func TestEveryFunctionLinked(t *testing.T) {
	if os.Getenv("SCG_GOLDEN_SLOW") == "" {
		t.Skip("set SCG_GOLDEN_SLOW=1 to build every binary and check that each function is linked")
	}
	declared := declaredFuncs(t)
	linked := map[string]bool{}
	dir := t.TempDir()
	for _, pkg := range mainPackages {
		bin := filepath.Join(dir, strings.ReplaceAll(pkg, "/", "_"))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = pkg
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", pkg, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "address kind name"; a generic instantiation's name
			// may hold spaces inside its brackets.
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := strings.Join(f[2:], " ")
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = "supercayley/" + pkg + "." + rest
			}
			if strings.HasPrefix(sym, "supercayley/") {
				for _, k := range symbolKeys(sym) {
					linked[k] = true
				}
			}
		}
	}

	allowed := readAllowlist(t)
	var missing []string
	for fn := range declared {
		if !linked[fn] && allowed[fn] == "" {
			missing = append(missing, fn)
		}
	}
	var stale []string
	for fn := range allowed {
		switch {
		case !declared[fn]:
			stale = append(stale, fn+" (no longer declared)")
		case linked[fn]:
			stale = append(stale, fn+" (linked)")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, fn := range missing {
		t.Errorf("%s is linked into no binary: delete it, or add it to testdata/unlinked.txt with a reason", fn)
	}
	for _, fn := range stale {
		t.Errorf("testdata/unlinked.txt lists %s: remove the line", fn)
	}
}

// shortPkg names a package in testdata/unlinked.txt: its import path
// without the module and internal/ prefixes.
func shortPkg(importPath string) string {
	p := strings.TrimPrefix(importPath, "supercayley/")
	return strings.TrimPrefix(p, "internal/")
}

// symbolKeys maps a linker symbol to the declarations it can stand
// for, as pkg.Func or pkg.Type.Method.  It drops generic
// instantiations ("[...]"), closure and wrapper suffixes (".func1",
// ".gowrap1", "-fm") and the pointer in "(*T)", so a value-receiver
// method counts as linked through either T.M or (*T).M.  Both the
// one- and two-part readings are returned; "T.func1" and "F.M" cannot
// both name declarations, so the extra key never matches one that
// does not exist.
func symbolKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
	parts := strings.Split(rest, ".")
	recv := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(parts[0], "("), "*"), ")")
	keys := []string{shortPkg(pkg) + "." + recv}
	if len(parts) > 1 {
		keys = append(keys, shortPkg(pkg)+"."+recv+"."+parts[1])
	}
	return keys
}

// declaredFuncs reads every function and method declared in the
// module's non-test files, as pkg.Func or pkg.Type.Method.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "bench", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := shortPkg("supercayley/" + filepath.ToSlash(filepath.Dir(path)))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			out[pkg+"."+name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName is the type name of a receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readAllowlist parses testdata/unlinked.txt: one "pkg.Func — reason"
// line per function; blank lines and # headings are skipped.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fn, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Fatalf("testdata/unlinked.txt:%d: want \"pkg.Func — reason\", got %q", i+1, line)
		}
		if _, dup := out[fn]; dup {
			t.Fatalf("testdata/unlinked.txt:%d: %s listed twice", i+1, fn)
		}
		out[fn] = reason
	}
	return out
}
