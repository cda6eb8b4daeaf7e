package fleet

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/search"
)

// TestBatchRouteAllocatesNothing: routing a 64-query batch — every
// seeker's preference walk, the skip past an ejected replica and the
// grouping by replica — allocates nothing once the batch's routing
// state is sized, and puts each request, in input order, in the group
// of its first live preference.
func TestBatchRouteAllocatesNothing(t *testing.T) {
	var clients []*Client
	for i := 0; i < 4; i++ {
		// Never dialled: routing only reads the ring and health state.
		clients = append(clients, newTestClient(t, fmt.Sprintf("http://127.0.0.1:%d", 1+i), ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tp := pool.view()
	const down = 1
	tp.states[down].eject(errors.New("down"))

	reqs := make([]search.Request, 64)
	for i := range reqs {
		reqs[i] = search.Request{Seeker: fmt.Sprintf("u%d", i), Tags: []string{"pizza"}}
	}
	out := make([]search.BatchResult, len(reqs))
	rt := newBatchRoute(tp, len(reqs))
	route := func() {
		clear(rt.rank)
		rt.route(tp, reqs, rt.pending, out)
	}
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Fatalf("routing a %d-query batch: %v allocs, want 0", len(reqs), allocs)
	}

	lo, spilled := 0, 0
	for idx, hi := range rt.ends[:len(tp.clients)] {
		for j, i := range rt.members[lo:hi] {
			pref := tp.ring.AppendSuccessors(nil, reqs[i].Seeker)
			want := pref[0]
			if want == down {
				want = pref[1]
				spilled++
			}
			if idx != want {
				t.Fatalf("request %d (%s, preferences %v) routed to replica %d, want %d", i, reqs[i].Seeker, pref, idx, want)
			}
			if j > 0 && rt.members[lo+j-1] >= i {
				t.Fatalf("replica %d's group %v is not in input order", idx, rt.members[lo:hi])
			}
		}
		lo = hi
	}
	if lo != len(reqs) {
		t.Fatalf("%d of %d requests routed", lo, len(reqs))
	}
	if spilled == 0 {
		t.Fatal("no request spilled past the ejected replica; the test routes nothing past it")
	}
}
