package fleet

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

// fakeReplica answers /v2 searches with valid JSON that is not its
// encoder's bytes: every score is written with a trailing zero
// ("score":1.50), where an encoder writes 1.5. A front door that
// decoded and encoded an answer would write 1.5; one that passes the
// answer on writes 1.50. It records each request body it receives.
type fakeReplica struct {
	ts     *httptest.Server
	status atomic.Int32 // answer every search with this status, when set
	alien  atomic.Bool  // answer every search 200 with a body that is no search answer
	down   atomic.Bool  // answer every batch query with an unavailable error entry
	mu     sync.Mutex
	bodies []string
}

func newFakeReplica(t *testing.T) *fakeReplica {
	r := &fakeReplica{}
	r.ts = httptest.NewServer(http.HandlerFunc(r.serve))
	t.Cleanup(r.ts.Close)
	return r
}

func (r *fakeReplica) serve(w http.ResponseWriter, req *http.Request) {
	body, _ := io.ReadAll(req.Body)
	r.mu.Lock()
	r.bodies = append(r.bodies, string(body))
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if r.alien.Load() {
		fmt.Fprint(w, `{"version":"other"}`+"\n")
		return
	}
	switch status := int(r.status.Load()); status {
	case 0:
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "2")
		fallthrough
	default:
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"status %d here"}`, status)
		return
	}
	switch req.URL.Path {
	case "/v2/search":
		var q server.V2Query
		json.Unmarshal(body, &q)
		fmt.Fprintf(w, `{"results":[{"item":"%s","score":1.50}]`, q.Seeker)
		if q.Explain {
			fmt.Fprint(w, `,"explain":{"algorithm":"exact-join","mode":"exact","horizon_users":3}`)
		}
		fmt.Fprint(w, "}\n")
	case "/v2/search/batch":
		var b server.V2BatchRequest
		json.Unmarshal(body, &b)
		entries := make([]string, len(b.Queries))
		for i, q := range b.Queries {
			entries[i] = fmt.Sprintf(`{"results":[{"item":"%s","score":2.50}]}`, q.Seeker)
			if strings.HasPrefix(q.Seeker, "bad") {
				entries[i] = `{"results":null,"error":"no such seeker","error_kind":"invalid"}`
			}
			if r.down.Load() {
				entries[i] = `{"results":null,"error":"replica down","error_kind":"unavailable"}`
			}
		}
		fmt.Fprintf(w, "{\"results\":[%s]}\n", strings.Join(entries, ","))
	}
}

func (r *fakeReplica) received() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.bodies
	r.bodies = nil
	return out
}

// TestFrontDoorAnswerPaths shows that every search request crosses the
// front door as bytes. Over replicas whose answers are valid JSON but
// not their encoder's bytes, the answers reach the client verbatim —
// plain queries and batches, explain, a sampled trace's, and a batch
// whose part holds an error entry — and the replicas receive the
// client's own query bytes, also on a failover. A 2xx answer that is
// no search answer fails over, and a replica's 400, 429 and 503 reach
// the client with their status and a body of the front door's own.
func TestFrontDoorAnswerPaths(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	var clients []*Client
	for _, r := range reps {
		clients = append(clients, newTestClient(t, r.ts.URL, ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1, FailAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewFrontend(pool, NewBroadcaster(clients, BroadcasterConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	door, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	traced.SetTracer(obs.NewTracer(obs.Config{SampleEvery: 1}))

	// Seekers owned by replicas 0, 1 and 2, and a seeker whose replica
	// answers it with an error entry.
	owned := make([]string, len(reps))
	bad := ""
	for i := 0; owned[0] == "" || owned[1] == "" || owned[2] == "" || bad == ""; i++ {
		s := fmt.Sprintf("s%d", i)
		if o := pool.ReplicaFor(s); owned[o] == "" {
			owned[o] = s
		}
		if pool.ReplicaFor("bad"+s) == 0 && bad == "" {
			bad = "bad" + s
		}
	}
	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	expect := func(what string, rec *httptest.ResponseRecorder, status int, body string) {
		t.Helper()
		if rec.Code != status || rec.Body.String() != body {
			t.Errorf("%s: %d %q, want %d %q", what, rec.Code, rec.Body, status, body)
		}
	}
	query := func(seeker string) string { return `{"seeker":"` + seeker + `","tags":["t"],"k":3,"mode":"exact"}` }
	plain := func(seeker string) string { return `{"results":[{"item":"` + seeker + `","score":2.50}]}` }
	for _, r := range reps {
		r.received()
	}

	// A plain query goes to its owner as the client wrote it, whitespace
	// and all, and its answer comes back as the owner wrote it.
	a := owned[0]
	spaced := `{"seeker": "` + a + `", "tags": ["t"]}`
	asWritten := `{"results":[{"item":"` + a + `","score":1.50}]}` + "\n"
	expect("plain query", post(door, "/v2/search", spaced), 200, asWritten)
	if got := reps[0].received(); len(got) != 1 || got[0] != spaced {
		t.Errorf("owner received %q, want the client's body %q", got, spaced)
	}

	// A plain batch: each replica gets its queries' own bytes, and the
	// entries come back as the replicas wrote them, in request order.
	batch := `{"queries":[` + query(owned[2]) + `,` + query(owned[0]) + `,` + query(owned[1]) + `,` + query(owned[2]) + `]}`
	spliced := `{"results":[` + plain(owned[2]) + `,` + plain(owned[0]) + `,` + plain(owned[1]) + `,` + plain(owned[2]) + "]}\n"
	expect("plain batch", post(door, "/v2/search/batch", batch), 200, spliced)
	for i, want := range []string{
		`{"queries":[` + query(owned[0]) + `]}`,
		`{"queries":[` + query(owned[1]) + `]}`,
		`{"queries":[` + query(owned[2]) + `,` + query(owned[2]) + `]}`,
	} {
		if got := reps[i].received(); len(got) != 1 || got[0] != want {
			t.Errorf("replica %d received %q, want %q", i, got, want)
		}
	}

	// A batch encoding/json read (spacing, an option the one pass does
	// not take) sends each query as json.Marshal writes it.
	expect("json-read batch", post(door, "/v2/search/batch", `{"queries": [ {"seeker": "`+a+`", "tags": ["t"], "beta": 0.5} ]}`), 200,
		`{"results":[`+plain(a)+"]}\n")
	if got, want := reps[0].received(), `{"queries":[{"seeker":"`+a+`","tags":["t"],"k":0,"beta":0.5}]}`; len(got) != 1 || got[0] != want {
		t.Errorf("owner received %q, want %q", got, want)
	}

	// Concurrent plain reads share the client's parsed URLs and headers,
	// and a batch's parts fill its entries from their own goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				expect("concurrent batch", post(door, "/v2/search/batch", batch), 200, spliced)
				expect("concurrent query", post(door, "/v2/search", query(a)), 200, asWritten)
			}
		}()
	}
	wg.Wait()

	// Explain, and any query of a sampled trace, pass on verbatim too.
	expect("explain", post(door, "/v2/search", `{"seeker":"`+a+`","tags":["t"],"explain":true}`), 200,
		`{"results":[{"item":"`+a+`","score":1.50}],"explain":{"algorithm":"exact-join","mode":"exact","horizon_users":3}}`+"\n")
	expect("sampled query", post(traced, "/v2/search", query(a)), 200, asWritten)
	expect("sampled batch", post(traced, "/v2/search/batch", `{"queries":[`+query(a)+`]}`), 200, `{"results":[`+plain(a)+"]}\n")

	// An error entry passes on verbatim, and so do the other entries of
	// its part.
	expect("error entry", post(door, "/v2/search/batch", `{"queries":[`+query(owned[1])+`,`+query(bad)+`,`+query(a)+`]}`), 200,
		`{"results":[`+plain(owned[1])+`,{"results":null,"error":"no such seeker","error_kind":"invalid"},`+plain(a)+"]}\n")

	// An unavailable entry fails over: its query goes to the next
	// replica, whose entry the client gets. With every replica down, the
	// query has no replica left, as when every part fails with a 503.
	next := pool.Ring().AppendSuccessors(nil, a)[1]
	reps[0].down.Store(true)
	reps[next].received()
	expect("unavailable entry", post(door, "/v2/search/batch", `{"queries":[`+query(a)+`,`+query(owned[1])+`]}`), 200,
		`{"results":[`+plain(a)+`,`+plain(owned[1])+"]}\n")
	if got := reps[next].received(); len(got) == 0 || got[0] != `{"queries":[`+query(a)+`]}` {
		t.Errorf("failover replica received %q, want the query of the down entry", got)
	}
	for _, r := range reps {
		r.down.Store(true)
	}
	expect("all down", post(door, "/v2/search/batch", `{"queries":[`+query(a)+`]}`), 200,
		`{"results":[{"results":null,"error":"search backend unavailable: no live replica for seeker \"`+a+`\"","error_kind":"unavailable"}]}`+"\n")
	for _, r := range reps {
		r.down.Store(false)
	}

	// A replica's refusal reaches the client as the front door's error.
	url0 := reps[0].ts.URL
	for _, c := range []struct {
		status int
		single string
		batch  string
	}{
		{400, `{"error":"` + url0 + ` /v2/search: status 400 here"}`,
			`{"results":[{"results":null,"error":"` + url0 + ` /v2/search/batch: status 400 here","error_kind":"invalid"}]}`},
		{429, `{"error":"search backend overloaded: ` + url0 + ` /v2/search: status 429 here"}`,
			`{"results":[{"results":null,"error":"search backend overloaded: ` + url0 + ` /v2/search/batch: status 429 here","error_kind":"overloaded","retry_after_ms":2000}]}`},
	} {
		reps[0].status.Store(int32(c.status))
		expect(fmt.Sprintf("%d query", c.status), post(door, "/v2/search", query(a)), c.status, c.single+"\n")
		expect(fmt.Sprintf("%d batch", c.status), post(door, "/v2/search/batch", `{"queries":[`+query(a)+`]}`), 200, c.batch+"\n")
	}
	if rec := post(door, "/v2/search", query(a)); rec.Header().Get("Retry-After") != "2" {
		t.Errorf("429 query: Retry-After %q, want 2", rec.Header().Get("Retry-After"))
	}

	// A failover, past an owner that answers 503 or a 200 that is no
	// search answer, forwards the same bytes to the next replica.
	for _, alien := range []bool{false, true} {
		reps[0].status.Store(http.StatusServiceUnavailable)
		if alien {
			reps[0].status.Store(0)
			reps[0].alien.Store(true)
		}
		reps[next].received()
		expect("failover query", post(door, "/v2/search", query(a)), 200, asWritten)
		if got := reps[next].received(); len(got) != 1 || got[0] != query(a) {
			t.Errorf("failover replica received %q, want the client's body %q", got, query(a))
		}
		expect("failover batch", post(door, "/v2/search/batch", `{"queries":[`+query(a)+`,`+query(owned[1])+`]}`), 200,
			`{"results":[`+plain(a)+`,`+plain(owned[1])+"]}\n")
	}
	reps[0].alien.Store(false)

	// With every replica down, the last one's 503 reaches the client.
	for _, r := range reps {
		r.status.Store(http.StatusServiceUnavailable)
	}
	last := reps[pool.Ring().AppendSuccessors(nil, a)[2]].ts.URL
	expect("503 query", post(door, "/v2/search", query(a)), 503,
		`{"error":"search backend unavailable: `+last+` /v2/search: status 503: status 503 here"}`+"\n")
	expect("503 batch", post(door, "/v2/search/batch", `{"queries":[`+query(a)+`]}`), 200,
		`{"results":[{"results":null,"error":"search backend unavailable: no live replica for seeker \"`+a+`\"","error_kind":"unavailable"}]}`+"\n")
}

// TestClientAsksForNoEncoding puts a compressing proxy in front of a
// replica: it gzips an answer whenever the request accepts gzip. The
// client asks for the identity encoding, through its own transport and
// a caller's, so the answer arrives as the replica wrote it, to the
// front-end's search path and to the client's own Do.
func TestClientAsksForNoEncoding(t *testing.T) {
	rep := newFakeReplica(t)
	var gzipped atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		rep.serve(rec, r)
		w.Header().Set("Content-Type", "application/json")
		if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			gzipped.Add(1)
			w.Header().Set("Content-Encoding", "gzip")
			gz := gzip.NewWriter(w)
			gz.Write(rec.Body.Bytes())
			gz.Close()
			return
		}
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(proxy.Close)
	for _, tr := range []http.RoundTripper{nil, &http.Transport{}} {
		c := newTestClient(t, proxy.URL, ClientConfig{Transport: tr})
		pool, err := NewPool([]*Client{c}, PoolConfig{HealthInterval: -1, FailAfter: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		front, err := NewFrontend(pool, NewBroadcaster([]*Client{c}, BroadcasterConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(front.Close)
		ctx := context.Background()

		req := search.Request{Seeker: "s", Tags: []string{"t"}, K: 3}
		got, err := front.SearchBytes(ctx, req, []byte(`{"seeker":"s","tags":["t"],"k":3}`), nil)
		if want := `{"results":[{"item":"s","score":1.50}]}` + "\n"; err != nil || string(got) != want {
			t.Errorf("front-end: %q, %v; want %q", got, err, want)
		}
		resp, err := c.Do(ctx, req)
		if err != nil || len(resp.Results) != 1 || resp.Results[0] != (search.Result{Item: "s", Score: 1.5}) {
			t.Errorf("client Do: %+v, %v", resp, err)
		}
	}
	if n := gzipped.Load(); n != 0 {
		t.Errorf("%d requests asked for gzip", n)
	}
}
