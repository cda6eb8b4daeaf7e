package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/proximity"
	"repro/internal/server"
	"repro/internal/social"
)

// TestFrontDoorAnswerBytes pins the bytes a fleet front door serves:
// three replicas over the seed-42 corpus at scale 0.5, and a
// server.New(fleet.Frontend) over them. Every answer crosses the fleet
// hop twice, encoded by the replica and decoded by the front-end's
// client before the front door encodes it again, so a codec change on
// either side that alters a value shows here. Plain single and batch
// queries at k 1, 10 and 100 take the decoder's fast path; the explain
// queries, issued one at a time in a fixed order so their cache hits
// repeat, take its encoding/json path. The hashes were recorded before
// the answer decoder was cut down to its encoder's shape.
func TestFrontDoorAnswerBytes(t *testing.T) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(0.5), 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := social.DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
	var clients []*fleet.Client
	for i := 0; i < 3; i++ {
		_, srv := v2Service(t, ds, cfg)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		c, err := fleet.NewClient(ts.URL, fleet.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := fleet.NewFrontend(pool, fleet.NewBroadcaster(clients, fleet.BroadcasterConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	door, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	queries := make([]map[string]interface{}, 48)
	for i := range queries {
		queries[i] = map[string]interface{}{
			"seeker": fmt.Sprintf("u%d", rng.Intn(ds.Graph.NumUsers())),
			"tags":   []string{fmt.Sprintf("t%d", rng.Intn(ds.Store.NumTags())), fmt.Sprintf("t%d", rng.Intn(ds.Store.NumTags()))},
			"mode":   "exact",
		}
	}
	withK := func(q map[string]interface{}, k int, explain bool) map[string]interface{} {
		out := map[string]interface{}{"k": k}
		for key, v := range q {
			out[key] = v
		}
		if explain {
			out["explain"] = true
		}
		return out
	}
	post := func(h hash.Hash, path string, body interface{}) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		door.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, raw, rec.Code, rec.Body)
		}
		h.Write(rec.Body.Bytes())
	}
	single, batch, explain := sha256.New(), sha256.New(), sha256.New()
	for _, k := range []int{1, 10, 100} {
		entries := make([]interface{}, len(queries))
		for i, q := range queries {
			post(single, "/v2/search", withK(q, k, false))
			entries[i] = withK(q, k, false)
		}
		post(batch, "/v2/search/batch", map[string]interface{}{"queries": entries})
		for _, q := range queries[:16] {
			post(explain, "/v2/search", withK(q, k, true))
		}
	}
	for _, c := range []struct {
		what string
		h    hash.Hash
		want string
	}{
		{"single", single, "7ef1f276cc68ccbc79f10b9a63ebbce64336fdd36ac8f31a7a89f8267e48e10b"},
		{"batch", batch, "2edc02a09c02c736cda8aca835e592019e0565777125e216e9a654fcab6431c9"},
		{"explain", explain, "f63b0ea2713fbba77d3059579662d98bd4225ba65d2d97e4bafb88aac0ded499"},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.want {
			t.Errorf("%s answers hash to %s, want %s", c.what, got, c.want)
		}
	}
}
