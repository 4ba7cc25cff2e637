package star

import (
	"math/rand"
	"testing"

	"supercayley/internal/perm"
)

func BenchmarkRoute13Star(b *testing.B) {
	g := newStar(b, 13)
	r := rand.New(rand.NewSource(1))
	u, v := perm.Random(r, 13), perm.Random(r, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Route(u, v)
	}
}

func BenchmarkDistance13Star(b *testing.B) {
	g := newStar(b, 13)
	r := rand.New(rand.NewSource(2))
	u, v := perm.Random(r, 13), perm.Random(r, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Distance(u, v)
	}
}

func BenchmarkSortToIdentity(b *testing.B) {
	g := newStar(b, 13)
	r := rand.New(rand.NewSource(3))
	p := perm.Random(r, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SortToIdentity(p)
	}
}
