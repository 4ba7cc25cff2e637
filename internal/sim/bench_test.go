package sim

import (
	"testing"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

func benchStarNet(b *testing.B, k int) *Net {
	b.Helper()
	gs := make([]gens.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gens.Transposition(k, i))
	}
	set, err := gens.NewSet(gs...)
	if err != nil {
		b.Fatal(err)
	}
	nt, err := FromSet("star", set)
	if err != nil {
		b.Fatal(err)
	}
	return nt
}

func BenchmarkFromSet6Star(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchStarNet(b, 6)
	}
}

func BenchmarkMNBAllPort6Star(b *testing.B) {
	nt := benchStarNet(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MNB(nt, AllPort); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMNBSDC5Star(b *testing.B) {
	nt := benchStarNet(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MNB(nt, SDC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTE5Star(b *testing.B) {
	nt := benchStarNet(b, 5)
	k := 5
	set := nt.Set()
	route := func(src, dst int) ([]int, error) {
		u, v := perm.Unrank(k, int64(src)), perm.Unrank(k, int64(dst))
		cur := u.Clone()
		var ports []int
		for !cur.Equal(v) {
			w := v.Inverse().Compose(cur)
			x := int(w[0])
			j := 0
			if x != 1 {
				j = x
			} else {
				for i := 1; i < k; i++ {
					if int(w[i]) != i+1 {
						j = i + 1
						break
					}
				}
			}
			ports = append(ports, j-2)
			cur = set.At(j - 2).Apply(cur)
		}
		return ports, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TE(nt, route); err != nil {
			b.Fatal(err)
		}
	}
}
