package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The whole module is loaded once and shared: type-checking the
// repository plus its stdlib closure costs ~1s, and every test only
// reads from the result.
var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func repoModule(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repoErr = err
			return
		}
		repoMod, repoErr = LoadModule(root)
	})
	if repoErr != nil {
		t.Fatalf("loading module: %v", repoErr)
	}
	return repoMod
}

// TestRepoIsClean is the gate ci.sh mirrors: the production tree must
// carry zero findings.
func TestRepoIsClean(t *testing.T) {
	m := repoModule(t)
	all, err := m.LintRules(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		t.Errorf("%s", f)
	}
}

// TestAnnotationsIndexed pins the hot-path annotation set: if someone
// drops a //scg:noalloc or //scg:deterministic directive, the invariant
// silently stops being checked — this test makes that loud.
func TestAnnotationsIndexed(t *testing.T) {
	m := repoModule(t)
	wantNoalloc := []string{
		"UnrankInto", "InverseInto", "ComposeInto", // perm kernels
		"LehmerDigitsInto", "RankAfterSwap", "RankSwapUpdate", // perm incremental rerank
		"Equal",                   // perm comparison on the cache-hit path
		"ApplyInto", "ReplayInto", // gens kernels
		"RouteInto", "appendQuotientRoute", "GreedyDim", // core kernel + callees
		"Get", "get", "shardOf", "moveToFront", "unlink", "pushFront", // core cache warm hit
		"appendDense",                                     // tables lookup loop
		"AddAt", "IncAt", "Observe", "Enabled", "Sampled", // obs hot half
		"NowNs", "Mark", "Begin", "Finish", "tailNote", "retain", // flight recorder warm half
		"AppendRouteRanks", "workerOf", // shard warm dispatch
		"Submit", "acquire", "Pairs", // serve admitted path
	}
	wantDeterministic := []string{
		"RouteMany", "RouteSweep", "SurvivorStatsUnder", "ReachMatrixUnder",
		"cmdInfo", // via the file-wide directive on cmd/scg/main.go
	}
	noalloc := map[string]bool{}
	for obj := range m.noalloc {
		noalloc[obj.Name()] = true
	}
	deterministic := map[string]bool{}
	for obj := range m.deterministic {
		deterministic[obj.Name()] = true
	}
	for _, name := range wantNoalloc {
		if !noalloc[name] {
			t.Errorf("expected %s to be //scg:noalloc", name)
		}
	}
	for _, name := range wantDeterministic {
		if !deterministic[name] {
			t.Errorf("expected %s to be //scg:deterministic", name)
		}
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	as := Analyzers()
	if len(as) != 9 {
		t.Fatalf("want 9 analyzers, got %d", len(as))
	}
	want := []string{
		"noalloc", "family-exhaustive", "determinism", "scratch-hygiene", "parallel-hygiene",
		"noalloc-closure", "atomic-hygiene", "lock-hygiene", "obs-discipline",
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
	}
	names := RuleNames()
	if names[len(names)-1] != SuppressionRule {
		t.Errorf("RuleNames must end with the %q pseudo-rule, got %v", SuppressionRule, names)
	}
}

// TestLintDeterministic pins the parallel driver's output contract:
// two runs over the same module yield byte-identical findings (the
// repo is clean, so this is exercised through a fixture package too).
func TestLintDeterministic(t *testing.T) {
	m := repoModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", "noalloc_bad"))
	if err != nil {
		t.Fatal(err)
	}
	lintAll := func() string {
		fs, err := m.LintRules(nil, pkg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(fs)
	}
	first := lintAll()
	for i := 0; i < 3; i++ {
		if again := lintAll(); again != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i+2, first, again)
		}
	}
}

// TestRulesSelection pins -rules semantics: a subset run reports only
// the named rules and rejects unknown names.
func TestRulesSelection(t *testing.T) {
	m := repoModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", "noalloc_bad"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := m.LintRules([]string{"determinism"}, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Rule != "determinism" {
			t.Errorf("rule-selected run leaked finding %s", f)
		}
	}
	if _, err := m.LintRules([]string{"no-such-rule"}, pkg); err == nil {
		t.Error("expected an error for an unknown rule name")
	}
}

var wantMarker = regexp.MustCompile(`// want ([a-z-]+)`)

// wantFindings reads the `// want <rule>` markers of every fixture
// file as "rule:line" strings.
func wantFindings(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, match := range wantMarker.FindAllStringSubmatch(line, -1) {
				out = append(out, fmt.Sprintf("%s:%d", match[1], i+1))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestFixtures deliberately breaks each rule (the *_bad packages) and
// demonstrates each allowance (the *_ok packages), asserting the exact
// (rule, line) multiset of findings per package.
func TestFixtures(t *testing.T) {
	m := repoModule(t)
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	covered := map[string]bool{}
	for _, dir := range dirs {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			pkg, err := m.LoadDir(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			var got []string
			fs, err := m.LintRules(nil, pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				got = append(got, fmt.Sprintf("%s:%d", f.Rule, f.Pos.Line))
				covered[f.Rule] = true
				if f.Hint == "" {
					t.Errorf("finding without a fix hint: %s", f)
				}
			}
			sort.Strings(got)
			want := wantFindings(t, dir)
			if strings.HasSuffix(dir, "_ok") && len(want) != 0 {
				t.Fatalf("ok fixture %s must not carry want markers", dir)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("no failing fixture exercises analyzer %s", a.Name)
		}
	}
}

// TestFindingString pins the file:line:col output contract that
// editors and CI logs parse.
func TestFindingString(t *testing.T) {
	m := repoModule(t)
	pkg, err := m.LoadDir(filepath.Join("testdata", "src", "noalloc_bad"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := m.LintRules(nil, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("expected findings")
	}
	var s string
	for _, f := range fs {
		if f.Rule == "noalloc" {
			s = f.String()
			break
		}
	}
	if !strings.Contains(s, "noalloc_bad.go:") || !strings.Contains(s, "[noalloc]") || !strings.Contains(s, "fix:") {
		t.Errorf("finding string missing position, rule, or hint: %q", s)
	}
}
