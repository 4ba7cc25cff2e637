package sim

import (
	"fmt"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
	"supercayley/internal/star"
)

// starAppendRoute is a reference engine for the star network: sort
// v⁻¹∘u to the identity with the greedy cycle algorithm, emitting
// transposition ports.
func starAppendRoute(t *testing.T, nt *Net) AppendRouteFunc {
	t.Helper()
	k := nt.k
	sg, err := star.New(k)
	if err != nil {
		t.Fatal(err)
	}
	return func(buf []gens.GenIndex, src, dst int) ([]gens.GenIndex, error) {
		u := perm.Unrank(k, int64(src))
		v := perm.Unrank(k, int64(dst))
		for _, g := range sg.Route(u, v) {
			p := nt.PortOf(g)
			if p < 0 {
				return buf, fmt.Errorf("no port for %s", g.Name())
			}
			buf = append(buf, gens.GenIndex(p))
		}
		return buf, nil
	}
}

func TestWorkloadsDeterministicAndInRange(t *testing.T) {
	const n, pairs = 120, 2000
	for _, mk := range []func() Workload{
		func() Workload { return UniformWorkload(n, pairs, 7) },
		func() Workload { return ZipfWorkload(n, pairs, 7, 1.3) },
	} {
		a, b := mk(), mk()
		if a.Pairs() != pairs {
			t.Fatalf("%s: %d pairs, want %d", a.Name, a.Pairs(), pairs)
		}
		for i := 0; i < pairs; i++ {
			if a.Srcs[i] != b.Srcs[i] || a.Dsts[i] != b.Dsts[i] {
				t.Fatalf("%s: pair %d differs between same-seed draws", a.Name, i)
			}
			if a.Srcs[i] < 0 || a.Srcs[i] >= n || a.Dsts[i] < 0 || a.Dsts[i] >= n {
				t.Fatalf("%s: pair %d (%d, %d) out of range", a.Name, i, a.Srcs[i], a.Dsts[i])
			}
			if a.Srcs[i] == a.Dsts[i] {
				t.Fatalf("%s: pair %d has src == dst", a.Name, i)
			}
		}
	}
	// Different seeds must differ somewhere.
	a, b := ZipfWorkload(n, pairs, 7, 1.3), ZipfWorkload(n, pairs, 8, 1.3)
	same := true
	for i := 0; i < pairs && same; i++ {
		same = a.Srcs[i] == b.Srcs[i] && a.Dsts[i] == b.Dsts[i]
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestZipfWorkloadIsSkewed(t *testing.T) {
	// The head node must draw far more than its uniform share.
	const n, pairs = 720, 5000
	wl := ZipfWorkload(n, pairs, 3, 1.4)
	head := 0
	for i := 0; i < pairs; i++ {
		if wl.Srcs[i] == 0 {
			head++
		}
	}
	if uniformShare := pairs / n; head < 10*uniformShare {
		t.Fatalf("head node drawn %d times, uniform share is %d — not skewed", head, uniformShare)
	}
}

func TestThroughputRoutesAndVerifies(t *testing.T) {
	nt := starNet(t, 5)
	wl := UniformWorkload(nt.N(), 3000, 9)
	res, err := Throughput(nt, starAppendRoute(t, nt), wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != wl.Pairs() || res.TotalHops <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.MeanRouteLen <= 0 || res.MeanRouteLen > float64(perm.StarDiameter(5)) {
		t.Fatalf("mean route length %.2f outside (0, %d]", res.MeanRouteLen, perm.StarDiameter(5))
	}
}

func TestThroughputRejectsBadRoutes(t *testing.T) {
	nt := starNet(t, 4)
	wl := UniformWorkload(nt.N(), 50, 2)

	// Engine that never moves: delivery check must fail.
	stay := func(buf []gens.GenIndex, src, dst int) ([]gens.GenIndex, error) { return buf, nil }
	if _, err := Throughput(nt, stay, wl); err == nil {
		t.Fatal("undelivered routes accepted")
	}
	// Engine that uses an out-of-range port.
	wild := func(buf []gens.GenIndex, src, dst int) ([]gens.GenIndex, error) {
		return append(buf, gens.GenIndex(nt.Ports())), nil
	}
	if _, err := Throughput(nt, wild, wl); err == nil {
		t.Fatal("invalid port accepted")
	}
	// Out-of-range workload.
	bad := Workload{Name: "bad", Srcs: []int32{0}, Dsts: []int32{int32(nt.N())}}
	if _, err := Throughput(nt, starAppendRoute(t, nt), bad); err == nil {
		t.Fatal("out-of-range workload accepted")
	}
	if _, err := Throughput(nt, starAppendRoute(t, nt), Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := Throughput(nt, nil, wl); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestAsRouteFuncAdapter(t *testing.T) {
	nt := starNet(t, 5)
	engine := starAppendRoute(t, nt)
	rf := engine.AsRouteFunc()
	wl := UniformWorkload(nt.N(), 100, 4)
	buf := make([]gens.GenIndex, 0, 64)
	for i := 0; i < wl.Pairs(); i++ {
		src, dst := int(wl.Srcs[i]), int(wl.Dsts[i])
		var err error
		buf, err = engine(buf[:0], src, dst)
		if err != nil {
			t.Fatal(err)
		}
		ports, err := rf(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(ports) != len(buf) {
			t.Fatalf("pair %d: adapter %d ports, engine %d", i, len(ports), len(buf))
		}
		for j := range ports {
			if ports[j] != int(buf[j]) {
				t.Fatalf("pair %d port %d: %d != %d", i, j, ports[j], buf[j])
			}
		}
	}
}
