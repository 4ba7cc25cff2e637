package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain judges a head set of run files against a base set by the
// benchmark's rules: every end-to-end metric of every workload must not
// worsen by more than its bound (regressed), and a metric whose run-to-
// run spread exceeds its bound is unresolved unless every head run beats
// every base run.  A claim metric@workload is met only when the head
// wins at least 9 of 10 seed-paired runs and the medians differ by more
// than the base's interquartile range.  It exits 1 on a regression, an
// unresolved metric or an unmet claim.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "glob of the base runs' JSON files")
	head := fs.String("head", "", "glob of the head runs' JSON files")
	claim := fs.String("claim", "", "metric@workload the head claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := loadRuns(*base)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("no untraced runs match -base %q", *base)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	h, err := loadRuns(*head)
	if err == nil && len(h) == 0 {
		err = fmt.Errorf("no untraced runs match -head %q", *head)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	verdicts, claimed := judge(sp, b, h, *claim)
	bad := false
	fmt.Printf("%-20s %-18s %14s %14s %9s %9s %9s  %s\n", "workload", "metric", "base median", "head median", "change", "spread", "bound", "verdict")
	for _, v := range verdicts {
		fmt.Printf("%-20s %-18s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%%  %s\n",
			v.workload, v.metric, v.base, v.head, 100*v.change, 100*v.spread, 100*v.bound, v.verdict)
		bad = bad || v.verdict == "regressed" || v.verdict == "unresolved"
	}
	if *claim != "" {
		fmt.Println(claimed.text)
		bad = bad || !claimed.met
	}
	if bad {
		return 1
	}
	return 0
}

// runs maps workload → that workload's untraced runs, ordered by seed.
type runs map[string][]*result

func loadRuns(glob string) (runs, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	out := runs{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

func (rs runs) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range rs[workload] {
		if s, ok := r.Metrics[metric]; ok {
			v = append(v, s.Value)
		}
	}
	return v
}

type verdict struct {
	workload, metric string
	base, head       float64
	change           float64 // signed: positive is better
	spread, bound    float64
	verdict          string
}

type claimResult struct {
	met  bool
	text string
}

func judge(sp *spec, base, head runs, claim string) ([]verdict, claimResult) {
	var out []verdict
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			bv, hv := base.values(w.Name, m.Name), head.values(w.Name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict{workload: w.Name, metric: m.Name, base: median(bv), head: median(hv), bound: m.Bound}
			sign := 1.0
			if m.Better == "lower" {
				sign = -1
			}
			v.change = sign * (v.head - v.base) / v.base
			v.spread = max(relIQR(bv), relIQR(hv))
			switch {
			case v.change < -m.Bound:
				v.verdict = "regressed"
			case v.spread > m.Bound && !dominates(hv, bv, sign):
				v.verdict = "unresolved"
			default:
				v.verdict = "ok"
			}
			out = append(out, v)
		}
	}
	if claim == "" {
		return out, claimResult{}
	}
	metric, workload, _ := strings.Cut(claim, "@")
	m, ok := sp.metric(metric)
	bv, hv := base.values(workload, metric), head.values(workload, metric)
	if !ok || len(bv) == 0 || len(hv) == 0 {
		return out, claimResult{text: fmt.Sprintf("claim %s: no such metric or workload in both sets", claim)}
	}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	pairs := min(len(bv), len(hv))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(hv[i]-bv[i]) > 0 {
			wins++
		}
	}
	gap := sign * (median(hv) - median(bv))
	iqr := quantile(bv, 0.75) - quantile(bv, 0.25)
	met := pairs > 0 && 10*wins >= 9*pairs && gap > iqr
	text := fmt.Sprintf("claim %s: head wins %d of %d pairs, median gap %.6g vs base IQR %.6g: ", claim, wins, pairs, gap, iqr)
	if met {
		text += "met"
	} else {
		text += "not met"
	}
	return out, claimResult{met: met, text: text}
}

// relIQR is the interquartile range as a share of the median.
func relIQR(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// dominates reports whether every head value beats every base value.
func dominates(head, base []float64, sign float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				return false
			}
		}
	}
	return true
}
