package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/obs"
)

// mainSwitchCases parses main.go and returns every string literal in
// the subcommand switch of main(), in source order.
func mainSwitchCases(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "main.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing main.go: %v", err)
	}
	var cases []string
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "main" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, stmt := range sw.Body.List {
				for _, expr := range stmt.(*ast.CaseClause).List {
					lit, ok := expr.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("unquoting case %s: %v", lit.Value, err)
					}
					cases = append(cases, s)
				}
			}
			return true
		})
	}
	if len(cases) == 0 {
		t.Fatal("no subcommand switch found in main()")
	}
	return cases
}

// TestUsageListsEverySubcommand is the drift guard between main()'s
// subcommand switch and the two places that name commands: every case
// (minus the help aliases) must appear as a roster line in usageText,
// and every roster line and every `scg <cmd>` example in doc.go must
// name a case, so a command can neither ship undocumented nor outlive
// its deletion in the docs.
func TestUsageListsEverySubcommand(t *testing.T) {
	helpAliases := map[string]bool{"help": true, "-h": true, "--help": true}
	cases := map[string]bool{}
	for _, c := range mainSwitchCases(t) {
		if helpAliases[c] {
			continue
		}
		cases[c] = true
		if !strings.Contains(usageText, "\n  "+c+" ") {
			t.Errorf("subcommand %q is in main()'s switch but not in usageText", c)
		}
	}
	for _, want := range []string{"info", "route", "serve", "stats"} {
		if !cases[want] {
			t.Errorf("expected subcommand %q in main()'s switch", want)
		}
	}

	roster := usageRoster(t)
	for _, c := range roster {
		if !cases[c] {
			t.Errorf("usageText lists %q, which is not a case of main()'s switch", c)
		}
	}
	if len(roster) != len(cases) {
		t.Errorf("usageText lists %d commands for %d switch cases", len(roster), len(cases))
	}

	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	examples := docCommandRE.FindAllStringSubmatch(string(doc), -1)
	if len(examples) == 0 {
		t.Fatal("doc.go names no scg commands")
	}
	for _, m := range examples {
		c := m[1] + m[2]
		if !cases[c] {
			t.Errorf("doc.go shows `scg %s`, which is not a case of main()'s switch", c)
		}
	}
}

// docCommandRE matches a command named in doc.go: a tab-indented
// usage example line, or an inline `scg <cmd>` code span.
var docCommandRE = regexp.MustCompile("(?m)^//\t+scg ([a-z][a-z-]*)|`scg ([a-z][a-z-]*)")

// usageRoster returns the command names usageText lists: the first
// word of each indented line under "commands:".
func usageRoster(t *testing.T) []string {
	t.Helper()
	_, body, ok := strings.Cut(usageText, "\ncommands:\n")
	if !ok {
		t.Fatal("usageText has no commands: section")
	}
	var names []string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		names = append(names, strings.Fields(line)[0])
	}
	return names
}

func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
	}
	return body
}

// TestServeMuxEndpoints drives the scg serve mux end to end after a
// real routed workload: /metrics carries the route-cache counters,
// /metrics.json and /trace/routes parse as JSON, /debug/vars exposes
// the published expvar maps, and the pprof handlers answer.
func TestServeMuxEndpoints(t *testing.T) {
	nw, err := core.New(core.MS, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs.RouteTrace.SetSampling(1)
	defer obs.RouteTrace.SetSampling(64)
	if _, err := routeWorkload(nw, 500, 1, 1.2); err != nil {
		t.Fatalf("routeWorkload: %v", err)
	}

	srv := httptest.NewServer(newServeMux())
	defer srv.Close()

	metrics := string(get(t, srv, "/metrics"))
	for _, want := range []string{
		"# TYPE scg_route_cache_hits_total counter",
		"scg_route_cache_hits_total",
		"scg_route_cache_misses_total",
		"scg_route_hops_count",
		"scg_route_many_calls_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get(t, srv, "/metrics.json"), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("/metrics.json snapshot is empty: %+v", snap)
	}

	var events []obs.TraceEvent
	if err := json.Unmarshal(get(t, srv, "/trace/routes"), &events); err != nil {
		t.Fatalf("/trace/routes: %v", err)
	}
	if len(events) == 0 {
		t.Error("/trace/routes empty after a fully sampled workload")
	}
	for _, ev := range events {
		if ev.Hops < 0 || len(ev.Steps) > ev.Hops {
			t.Errorf("trace event has %d steps for %d hops", len(ev.Steps), ev.Hops)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get(t, srv, "/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	for _, want := range []string{"scg_metrics", "scg_route_trace", "scg_route_cache"} {
		if _, ok := vars[want]; !ok {
			t.Errorf("/debug/vars missing %q", want)
		}
	}

	if body := get(t, srv, "/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline returned an empty body")
	}
}

// TestServeRejectsBadSampleInterval pins the power-of-two check, which
// must fire before any state is touched or a listener is bound.
func TestServeRejectsBadSampleInterval(t *testing.T) {
	for _, interval := range []string{"0", "3", "100"} {
		if err := cmdServe([]string{"-trace-sample", interval}); err == nil {
			t.Errorf("cmdServe accepted -trace-sample %s", interval)
		}
	}
}
