package search

import (
	"errors"
	"reflect"
	"testing"
)

func TestNormalizeKPolicy(t *testing.T) {
	base := func() Request { return Request{Seeker: "alice", Tags: []string{"pizza"}} }

	r := base()
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.K != DefaultK {
		t.Fatalf("zero k normalized to %d, want DefaultK=%d", r.K, DefaultK)
	}

	r = base()
	r.K = -1
	if err := r.Normalize(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative k: err = %v, want ErrInvalid", err)
	}

	r = base()
	r.K = MaxK + 500
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.K != MaxK {
		t.Fatalf("oversized k clamped to %d, want %d", r.K, MaxK)
	}

	r = base()
	r.K = 7
	if err := r.Normalize(); err != nil || r.K != 7 {
		t.Fatalf("valid k mangled: k=%d err=%v", r.K, err)
	}
}

func TestNormalizeTagsAndSeeker(t *testing.T) {
	r := Request{Seeker: "alice", Tags: []string{" pizza, italian ", "", "sushi"}}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"pizza", "italian", "sushi"}; !reflect.DeepEqual(r.Tags, want) {
		t.Fatalf("tags = %v, want %v", r.Tags, want)
	}

	for _, bad := range []Request{
		{Seeker: "", Tags: []string{"pizza"}},
		{Seeker: "   ", Tags: []string{"pizza"}},
		{Seeker: "alice", Tags: nil},
		{Seeker: "alice", Tags: []string{" ", ","}},
	} {
		if err := bad.Normalize(); !errors.Is(err, ErrInvalid) {
			t.Errorf("Normalize(%+v) = %v, want ErrInvalid", bad, err)
		}
	}
}

func TestNormalizeKnobRanges(t *testing.T) {
	mk := func(mutate func(*Request)) Request {
		r := Request{Seeker: "alice", Tags: []string{"pizza"}}
		mutate(&r)
		return r
	}
	bad := []Request{
		mk(func(r *Request) { b := -0.1; r.Beta = &b }),
		mk(func(r *Request) { b := 1.1; r.Beta = &b }),
		mk(func(r *Request) { r.Mode = Mode(99) }),
		mk(func(r *Request) { r.MinScore = -1 }),
		mk(func(r *Request) { r.Offset = -1 }),
		// Offset shares K's cap: implementations fetch K+Offset results,
		// so an unbounded offset would subvert MaxK entirely.
		mk(func(r *Request) { r.Offset = MaxK + 1 }),
	}
	for i, r := range bad {
		if err := r.Normalize(); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}

	ok := mk(func(r *Request) {
		b := 0.5
		r.Beta = &b
		r.Mode = ModeApprox
		r.MinScore = 0.25
		r.Offset = 3
	})
	if err := ok.Normalize(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapInvalid(t *testing.T) {
	inner := errors.New(`social: unknown user "nobody"`)
	err := WrapInvalid(inner)
	if !errors.Is(err, ErrInvalid) {
		t.Fatal("wrapped error does not match ErrInvalid")
	}
	if err.Error() != inner.Error() {
		t.Fatalf("message changed: %q", err.Error())
	}
	if !errors.Is(err, inner) {
		t.Fatal("wrapped error lost its cause")
	}
	if WrapInvalid(nil) != nil {
		t.Fatal("WrapInvalid(nil) != nil")
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{"": ModeAuto, "auto": ModeAuto, "Exact": ModeExact, " approx ": ModeApprox}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("banana"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("ParseMode(banana) = %v, want ErrInvalid", err)
	}
}

func TestWindow(t *testing.T) {
	results := []Result{{"a", 5}, {"b", 4}, {"c", 3}, {"d", 2}, {"e", 1}}
	r := Request{K: 2, Offset: 1, MinScore: 2}
	got := r.Window(append([]Result(nil), results...))
	if want := []Result{{"b", 4}, {"c", 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window = %v, want %v", got, want)
	}
	// Offset past the filtered list yields nothing.
	r = Request{K: 3, Offset: 10}
	if got := r.Window(append([]Result(nil), results...)); got != nil {
		t.Fatalf("offset past end = %v, want nil", got)
	}
	// MinScore filters the tail only.
	r = Request{K: 10, MinScore: 3.5}
	got = r.Window(append([]Result(nil), results...))
	if want := []Result{{"a", 5}, {"b", 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("min-score window = %v, want %v", got, want)
	}
}

func TestNormalizeCacheKnobs(t *testing.T) {
	r := Request{Seeker: "s", Tags: []string{"t"}, MaxCacheAgeMS: -5}
	if err := r.Normalize(); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative MaxCacheAgeMS: err = %v, want ErrInvalid", err)
	}
	ok := Request{Seeker: "s", Tags: []string{"t"}, NoCache: true, MaxCacheAgeMS: 1500}
	if err := ok.Normalize(); err != nil {
		t.Fatalf("valid cache knobs rejected: %v", err)
	}
}
