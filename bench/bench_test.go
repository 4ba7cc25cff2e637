package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"supercayley/internal/core"
	"supercayley/internal/gens"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// toyConfig runs phases of 30 ms at k = 5 or 6.
func toyConfig(sp *spec, trace bool) runConfig {
	return runConfig{spec: sp, seed: 1, seconds: 0.03 * 3 * reps, trace: trace, toy: true}
}

func TestSpecShape(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range sp.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not defined in the benchmark", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("metric %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced,
// and checks each emits every metric of its kind with its unit and no
// failure.
func TestWorkloadsToy(t *testing.T) {
	sp := testSpec(t)
	for _, sw := range sp.Workloads {
		w, _ := findWorkload(sw.Name)
		for _, trace := range []bool{false, true} {
			cfg := toyConfig(sp, trace)
			cfg.outDir = t.TempDir()
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			metrics := sp.EndToEnd
			if trace {
				metrics = sp.PerLayer
			}
			blob, ok := summaryLine(res, metrics)
			if !ok || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: not correct: %s %v", w.name, trace, blob, res.Errors)
			}
			var l struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(blob, &l); err != nil {
				t.Fatal(err)
			}
			for _, m := range metrics {
				got, ok := l.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %q: %+v", w.name, trace, m.Name, m.Unit, got)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// corruptRouter changes the first port of every route it returns.
type corruptRouter struct{ core.Router }

func (c corruptRouter) RouteManyInto(out *core.BulkRoutes, srcs, dsts []int64) error {
	if err := c.Router.RouteManyInto(out, srcs, dsts); err != nil {
		return err
	}
	deg := c.Network().Degree()
	for i := 0; i < out.Pairs(); i++ {
		if lo := out.Offsets[i]; out.Offsets[i+1] > lo {
			out.Steps[lo] = gens.GenIndex((int(out.Steps[lo]) + 1) % deg)
		}
	}
	return nil
}

func TestCorruptedPortFails(t *testing.T) {
	sp := testSpec(t)
	for _, name := range []string{"serve-hot-k8", "offline-k9"} {
		w, _ := findWorkload(name)
		cfg := toyConfig(sp, false)
		cfg.wrap = func(r core.Router) core.Router { return corruptRouter{r} }
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := summaryLine(res, sp.EndToEnd); ok || res.Failed == 0 {
			t.Errorf("%s: a router that corrupts one port per route passed (failed = %d)", name, res.Failed)
		}
	}
}

func TestJudge(t *testing.T) {
	sp := &spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	set := func(tput, lat []float64) runs {
		var rs []*result
		for i := range tput {
			rs = append(rs, &result{Workload: "w", Seed: int64(i), Metrics: map[string]summary{
				"tput": {Value: tput[i]}, "lat": {Value: lat[i]},
			}})
		}
		return runs{"w": rs}
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	base := set(steady, steady)
	faster := make([]float64, len(steady))
	slower := make([]float64, len(steady))
	for i, v := range steady {
		faster[i], slower[i] = v*1.2, v*1.2
	}
	v, c := judge(sp, base, set(faster, slower), "tput@w")
	if v[0].verdict != "ok" || v[1].verdict != "regressed" || !c.met {
		t.Errorf("want tput ok, lat regressed, claim met; got %+v %+v", v, c)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	v, c = judge(sp, base, set(noisy, steady), "tput@w")
	if v[0].verdict != "unresolved" || v[1].verdict != "ok" || c.met {
		t.Errorf("want tput unresolved, lat ok, claim not met; got %+v %+v", v, c)
	}
}
