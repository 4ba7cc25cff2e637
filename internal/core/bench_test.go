package core

import (
	"math/rand"
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

func benchNetworks(b *testing.B) []*Network {
	b.Helper()
	is, err := NewIS(13)
	if err != nil {
		b.Fatal(err)
	}
	return []*Network{
		MustNew(MS, 4, 3),
		MustNew(CompleteRS, 4, 3),
		MustNew(MIS, 4, 3),
		is,
	}
}

func BenchmarkRoute(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, nw := range benchNetworks(b) {
		nw := nw
		b.Run(nw.Name(), func(b *testing.B) {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = nw.Route(u, v)
			}
		})
	}
}

func BenchmarkRouteInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, nw := range benchNetworks(b) {
		nw := nw
		b.Run(nw.Name(), func(b *testing.B) {
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			s := NewRouteScratch(nw.K())
			dst := make([]gens.GenIndex, 0, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = nw.RouteInto(dst[:0], u, v, s)
			}
		})
	}
}

func BenchmarkRouteCachedWarm(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, nw := range benchNetworks(b) {
		nw := nw
		b.Run(nw.Name(), func(b *testing.B) {
			cr := NewCachedRouter(nw, CacheConfig{})
			u, v := perm.Random(r, nw.K()), perm.Random(r, nw.K())
			dst := make([]gens.GenIndex, 0, 512)
			dst = cr.AppendRoute(dst[:0], u, v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cr.AppendRoute(dst[:0], u, v)
			}
		})
	}
}

func BenchmarkRouteManyWarm(b *testing.B) {
	nw := MustNew(MS, 7, 1) // k = 8
	cr := NewCachedRouter(nw, CacheConfig{})
	n := perm.Factorial(nw.K())
	r := rand.New(rand.NewSource(3))
	const pairs = 4096
	srcs := make([]int64, pairs)
	dsts := make([]int64, pairs)
	for i := range srcs {
		srcs[i] = r.Int63n(n)
		dsts[i] = r.Int63n(n)
	}
	if _, err := cr.RouteMany(srcs, dsts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cr.RouteMany(srcs, dsts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

func BenchmarkEmulateStarDim(b *testing.B) {
	nw := MustNew(MS, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 2; j <= nw.K(); j++ {
			_ = nw.EmulateStarDim(j)
		}
	}
}

func BenchmarkConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range Families {
			if f == IS {
				if _, err := NewIS(13); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, err := New(f, 4, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
}
