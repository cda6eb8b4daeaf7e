package server

import (
	"net/http"
	"testing"

	"repro/internal/social"
)

// TestEndpointsOfTheAbsentRole pins what a backend answers on the
// endpoints of the role it does not play: a replica has no replication
// log or fleet to resize, a front-end holds no state to apply records
// to, snapshot or warm — and /v2/invalidate is gone from both: the
// last apply page of a stream asks for the fold. /v1/search and
// /v1/search/batch are gone from both too: /v2 is the one search wire.
func TestEndpointsOfTheAbsentRole(t *testing.T) {
	cases := []struct {
		name    string
		backend Backend
		method  string
		path    string
		body    interface{}
		want    int
	}{
		{"replica: replog", noopReplica{}, http.MethodGet, "/v2/replog?from=1", nil, http.StatusNotFound},
		{"replica: resize", noopReplica{}, http.MethodPost, "/v2/fleet/resize", FleetResizeRequest{Join: []string{"http://r:1"}}, http.StatusNotFound},
		{"frontend: apply", noopFrontend{}, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}}, http.StatusNotFound},
		{"frontend: snapshot export", noopFrontend{}, http.MethodGet, "/v2/snapshot", nil, http.StatusNotFound},
		{"frontend: snapshot import", noopFrontend{}, http.MethodPost, "/v2/snapshot", nil, http.StatusNotFound},
		{"frontend: cache seekers", noopFrontend{}, http.MethodGet, "/v2/cache/seekers", nil, http.StatusNotFound},
		{"frontend: cache warm", noopFrontend{}, http.MethodPost, "/v2/cache/warm", map[string][]string{"seekers": {"a"}}, http.StatusNotFound},
		{"frontend: fold", noopFrontend{}, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}, Fold: true}, http.StatusNotFound},
		{"replica: invalidate", noopReplica{}, http.MethodPost, "/v2/invalidate", map[string]bool{"all": true}, http.StatusNotFound},
		// Search has one wire, /v2: the /v1 search routes are gone for
		// every role.
		{"replica: v1 search", noopReplica{}, http.MethodGet, "/v1/search?seeker=a&tags=t&k=3", nil, http.StatusNotFound},
		{"replica: v1 search batch", noopReplica{}, http.MethodPost, "/v1/search/batch", V2BatchRequest{Queries: []V2Query{{Seeker: "a", Tags: []string{"t"}}}}, http.StatusNotFound},
		{"frontend: v1 search", noopFrontend{}, http.MethodGet, "/v1/search?seeker=a&tags=t&k=3", nil, http.StatusNotFound},
		{"frontend: v1 search batch", noopFrontend{}, http.MethodPost, "/v1/search/batch", V2BatchRequest{Queries: []V2Query{{Seeker: "a", Tags: []string{"t"}}}}, http.StatusNotFound},
		// A backend with neither role answers all of them the same way.
		{"plain: replog", noopBackend{}, http.MethodGet, "/v2/replog", nil, http.StatusNotFound},
		{"plain: apply", noopBackend{}, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}}, http.StatusNotFound},
		{"plain: stats", noopBackend{}, http.MethodGet, "/v1/stats", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		s, err := New(tc.backend)
		if err != nil {
			t.Fatal(err)
		}
		if rec := doJSON(t, s, tc.method, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: %s %s answered %d, want %d (body %s)", tc.name, tc.method, tc.path, rec.Code, tc.want, rec.Body)
		}
	}
	// The role's own endpoints do answer: the fakes are not 404 for
	// lack of wiring.
	for _, tc := range []struct {
		backend Backend
		method  string
		path    string
		body    interface{}
	}{
		{noopFrontend{}, http.MethodGet, "/v2/replog", nil},
		{noopReplica{}, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}}},
		{noopReplica{}, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}, Fold: true}},
		{noopReplica{}, http.MethodGet, "/v2/cache/seekers", nil},
	} {
		s, _ := New(tc.backend)
		if rec := doJSON(t, s, tc.method, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Errorf("%T %s %s answered %d, want 200", tc.backend, tc.method, tc.path, rec.Code)
		}
	}
	// /healthz carries each role's header and not the other's.
	rep, _ := New(noopReplica{})
	if h := doJSON(t, rep, http.MethodGet, "/healthz", nil).Header(); h.Get("X-Applied-LSN") != "0" || h.Get("X-Quorum-Role") != "" {
		t.Errorf("replica /healthz headers = %v", h)
	}
	fe, _ := New(noopFrontend{})
	if h := doJSON(t, fe, http.MethodGet, "/healthz", nil).Header(); h.Get("X-Applied-LSN") != "" {
		t.Errorf("front-end /healthz carries X-Applied-LSN: %v", h)
	}
}
