package main

// Drift guards and smoke tests for the routing-service face of scg:
// the serve flag rosters are read out of the source AST so a flag
// cannot ship undocumented or silently disappear, and the
// /route + /route/bulk endpoints are driven end to end through the
// same mux `scg serve` binds.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/obs"
	"supercayley/internal/serve"
)

// flagRegistrations parses file and returns flag-name → usage-string
// for every fs.Int/String/Float64/Duration/... registration inside
// the named function.
func flagRegistrations(t *testing.T, file, fn string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	flags := map[string]string{}
	for _, decl := range parsed.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			if !ok || recv.Name != "fs" {
				return true
			}
			name, ok1 := call.Args[0].(*ast.BasicLit)
			usage, ok2 := call.Args[len(call.Args)-1].(*ast.BasicLit)
			if !ok1 || name.Kind != token.STRING {
				return true
			}
			n1, _ := strconv.Unquote(name.Value)
			u1 := ""
			if ok2 && usage.Kind == token.STRING {
				u1, _ = strconv.Unquote(usage.Value)
			}
			flags[n1] = u1
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatalf("no flag registrations found in %s's %s", file, fn)
	}
	return flags
}

// TestServeFlagRoster pins the routing/admission knobs addServeFlags
// exposes: each must exist with a non-empty usage string, and nothing
// unexpected may creep in.
func TestServeFlagRoster(t *testing.T) {
	flags := flagRegistrations(t, "serve.go", "addServeFlags")
	want := []string{"queue", "max-bulk", "rate", "burst", "drain-wait", "slo", "slo-objective"}
	for _, name := range want {
		usage, ok := flags[name]
		if !ok {
			t.Errorf("addServeFlags no longer registers -%s", name)
		} else if usage == "" {
			t.Errorf("-%s has an empty usage string", name)
		}
	}
	if len(flags) != len(want) {
		t.Errorf("addServeFlags registers %d flags, roster lists %d — update the roster test", len(flags), len(want))
	}
}

// TestShardFlagRoster pins the sharded-engine knobs addShardFlags
// exposes with the same exact-roster discipline.
func TestShardFlagRoster(t *testing.T) {
	flags := flagRegistrations(t, "serve.go", "addShardFlags")
	want := []string{"shards", "shard-residency"}
	for _, name := range want {
		usage, ok := flags[name]
		if !ok {
			t.Errorf("addShardFlags no longer registers -%s", name)
		} else if usage == "" {
			t.Errorf("-%s has an empty usage string", name)
		}
	}
	if len(flags) != len(want) {
		t.Errorf("addShardFlags registers %d flags, roster lists %d — update the roster test", len(flags), len(want))
	}
}

// TestServeCmdFlagRoster pins cmdServe's own knobs with the same
// exact-roster discipline; the network, service and shard flags live
// in addNetFlags, addServeFlags and addShardFlags.
func TestServeCmdFlagRoster(t *testing.T) {
	flags := flagRegistrations(t, "serve.go", "cmdServe")
	want := []string{"addr", "trace-sample"}
	for _, name := range want {
		usage, ok := flags[name]
		if !ok {
			t.Errorf("cmdServe no longer registers -%s", name)
		} else if usage == "" {
			t.Errorf("-%s has an empty usage string", name)
		}
	}
	if len(flags) != len(want) {
		t.Errorf("cmdServe registers %d flags, roster lists %d — update the roster test", len(flags), len(want))
	}
}

// TestStatsFlagRoster pins cmdStats's own knobs (-stages included)
// with the same exact-roster discipline; the shared network flags live
// in addNetFlags and are rostered elsewhere.
func TestStatsFlagRoster(t *testing.T) {
	flags := flagRegistrations(t, "serve.go", "cmdStats")
	want := []string{"pairs", "seed", "skew", "format", "stages"}
	for _, name := range want {
		usage, ok := flags[name]
		if !ok {
			t.Errorf("cmdStats no longer registers -%s", name)
		} else if usage == "" {
			t.Errorf("-%s has an empty usage string", name)
		}
	}
	if len(flags) != len(want) {
		t.Errorf("cmdStats registers %d flags, roster lists %d — update the roster test", len(flags), len(want))
	}
}

// TestServeMuxRouteEndpoints drives /route and /route/bulk through
// the mux cmdServe binds — the same wiring, minus the listener — and
// checks the routes against the direct router.
func TestServeMuxRouteEndpoints(t *testing.T) {
	nw, err := core.New(core.MS, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewCachedRouter(nw, core.CacheConfig{})
	svc := serve.NewService(core.NewCachedRouter(nw, core.CacheConfig{}), serve.ServiceConfig{})
	mux := newServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Drain() }()

	resp, err := http.Post(srv.URL+"/route", "application/json",
		bytes.NewReader([]byte(`{"src": 5, "dst": 99}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /route: status %d, body %q", resp.StatusCode, body)
	}
	route, err := ref.AppendRouteRanks(nil, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"hops":`+strconv.Itoa(len(route)))) {
		t.Errorf("POST /route body %q does not report the reference hop count %d", body, len(route))
	}

	resp, err = http.Post(srv.URL+"/route/bulk", "application/json",
		bytes.NewReader([]byte(`{"srcs": [5, 7], "dsts": [99, 3]}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /route/bulk: status %d, body %q", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"count":2`)) {
		t.Errorf("POST /route/bulk body %q does not carry both pairs", body)
	}

	// The debug endpoints still answer beside the routing ones.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(metrics, []byte("scg_serve_bulk_requests_total")) {
		t.Error("/metrics does not expose the serve request counters")
	}
}

// TestServeMuxTraceEndpoints drives traffic through the mux with the
// flight recorder sampling every journey, then checks /trace/requests
// returns valid journey JSON whose spans tile each journey's wall time
// and /trace/chrome returns a valid Chrome trace-event document.
func TestServeMuxTraceEndpoints(t *testing.T) {
	nw, err := core.New(core.MS, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(core.NewCachedRouter(nw, core.CacheConfig{}), serve.ServiceConfig{})
	mux := newServeMux()
	svc.RegisterOn(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Drain() }()

	obs.Flight.SetSampling(1) // retain every journey for the assertion
	defer obs.Flight.SetSampling(64)
	for i := 0; i < 8; i++ {
		resp, err := http.Post(srv.URL+"/route/bulk", "application/json",
			bytes.NewReader([]byte(`{"srcs": [5, 7], "dsts": [99, 3]}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /route/bulk: status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/trace/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/requests: status %d", resp.StatusCode)
	}
	var journeys []obs.JourneyEvent
	if err := json.Unmarshal(body, &journeys); err != nil {
		t.Fatalf("/trace/requests is not a journey array: %v\n%s", err, body)
	}
	sawBulk := false
	for _, j := range journeys {
		if j.Kind != "bulk" || j.Truncated {
			continue
		}
		sawBulk = true
		var sum int64
		for _, sp := range j.Spans {
			sum += sp.DurNs
		}
		if sum != j.TotalNs {
			t.Errorf("journey %d: spans sum to %dns, total is %dns — spans must tile the journey",
				j.ID, sum, j.TotalNs)
		}
	}
	if !sawBulk {
		t.Error("/trace/requests retained no bulk journeys despite 1-in-1 sampling")
	}

	cresp, err := http.Get(srv.URL + "/trace/chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if !json.Valid(chrome) {
		t.Errorf("/trace/chrome is not valid JSON: %.200s", chrome)
	}
	if !bytes.Contains(chrome, []byte(`"traceEvents"`)) {
		t.Errorf("/trace/chrome lacks the traceEvents envelope: %.200s", chrome)
	}
}
