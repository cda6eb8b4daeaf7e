package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/topk"
)

func rs(items ...int32) []topk.Result {
	out := make([]topk.Result, len(items))
	for i, it := range items {
		out[i] = topk.Result{Item: it, Score: float64(len(items) - i)}
	}
	return out
}

func TestPrecisionAtK(t *testing.T) {
	want := rs(1, 2, 3)
	if p := PrecisionAtK(rs(1, 2, 3), want); p != 1 {
		t.Fatalf("perfect precision = %g", p)
	}
	if p := PrecisionAtK(rs(1, 9, 8), want); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("precision = %g, want 1/3", p)
	}
	if p := PrecisionAtK(nil, want); p != 0 {
		t.Fatalf("empty-answer precision = %g", p)
	}
	if p := PrecisionAtK(nil, nil); p != 1 {
		t.Fatalf("both-empty precision = %g", p)
	}
}

func TestNDCG(t *testing.T) {
	want := rs(1, 2, 3)
	if n := NDCGAtK(rs(1, 2, 3), want); math.Abs(n-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %g", n)
	}
	// reversing the order must strictly reduce NDCG
	if n := NDCGAtK(rs(3, 2, 1), want); n >= 1 || n <= 0 {
		t.Fatalf("reversed NDCG = %g, want in (0,1)", n)
	}
	if n := NDCGAtK(nil, nil); n != 1 {
		t.Fatalf("empty NDCG = %g", n)
	}
	if n := NDCGAtK(rs(9, 8), want); n != 0 {
		t.Fatalf("irrelevant NDCG = %g, want 0", n)
	}
}

func TestPropertyMetricRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []topk.Result {
			n := rng.Intn(10)
			out := make([]topk.Result, 0, n)
			used := map[int32]bool{}
			for len(out) < n {
				it := int32(rng.Intn(20))
				if used[it] {
					continue
				}
				used[it] = true
				out = append(out, topk.Result{Item: it, Score: float64(rng.Intn(10) + 1)})
			}
			topk.SortResults(out)
			return out
		}
		got, want := mk(), mk()
		if p := PrecisionAtK(got, want); p < 0 || p > 1 {
			return false
		}
		if n := NDCGAtK(got, want); n < 0 || n > 1+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelfComparisonPerfect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		out := make([]topk.Result, 0, n)
		used := map[int32]bool{}
		for len(out) < n {
			it := int32(rng.Intn(50))
			if used[it] {
				continue
			}
			used[it] = true
			out = append(out, topk.Result{Item: it, Score: float64(rng.Intn(9) + 1)})
		}
		topk.SortResults(out)
		return PrecisionAtK(out, out) == 1 &&
			math.Abs(NDCGAtK(out, out)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCounters(t *testing.T) {
	var c CacheCounters
	if s := c.Snapshot(); s != (CacheSnapshot{}) || s.HitRate() != 0 {
		t.Fatalf("zero counters snapshot = %+v", s)
	}
	c.Hit()
	c.Hit()
	c.Hit()
	c.Miss()
	c.Invalidation(2)
	c.Eviction(1)
	s := c.Snapshot()
	want := CacheSnapshot{Hits: 3, Misses: 1, Invalidations: 2, Evictions: 1}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	if r := s.HitRate(); math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("hit rate = %g, want 0.75", r)
	}
}

func TestCacheCountersConcurrent(t *testing.T) {
	var c CacheCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Hit()
				c.Miss()
				c.Invalidation(1)
				c.Eviction(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Hits != 8000 || s.Misses != 8000 || s.Invalidations != 8000 || s.Evictions != 8000 {
		t.Fatalf("snapshot = %+v", s)
	}
}
