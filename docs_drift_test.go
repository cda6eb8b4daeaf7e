package repro

// Doc-drift tests: documentation and code must not diverge silently.
// TestDocsFlagDrift pins every cmd/friendserve flag to a mention in
// README.md or docs/; TestDocsStatsKeyDrift pins every stats/replog key
// the fleet documentation names to a key present in a live response
// from an HA front-end. Either failing means a PR changed one side
// without the other.

import (
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/server"
	"repro/internal/social"
)

// readAllDocs concatenates README.md and every markdown file under
// docs/ — the corpus a flag mention may live in.
func readAllDocs(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md must exist at the repo root: %v", err)
	}
	sb.Write(readme)
	err = filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sb.Write(b)
		sb.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDocsFlagDrift: every flag cmd/friendserve registers must appear
// (as -name) somewhere in README.md or docs/.
func TestDocsFlagDrift(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "friendserve", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)\("([^"]+)"`)
	var flags []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) < 10 {
		t.Fatalf("parsed only %d flags from cmd/friendserve/main.go — extraction regex broken?", len(flags))
	}
	docs := readAllDocs(t)
	for _, name := range flags {
		if !strings.Contains(docs, "-"+name) {
			t.Errorf("flag -%s of cmd/friendserve is documented nowhere in README.md or docs/", name)
		}
	}
}

// sectionKeys extracts the backticked identifier-shaped tokens of one
// markdown section (from its heading line to the next heading of the
// same or higher level) — the keys that section claims exist.
func sectionKeys(t *testing.T, md, heading string) []string {
	t.Helper()
	lines := strings.Split(md, "\n")
	level := strings.Count(strings.SplitN(heading, " ", 2)[0], "#")
	start := -1
	for i, l := range lines {
		if strings.TrimSpace(l) == heading {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatalf("markdown has no %q section", heading)
	}
	var body strings.Builder
	for _, l := range lines[start:] {
		if h := strings.TrimLeft(l, "#"); strings.HasPrefix(l, "#") && len(l)-len(h) <= level {
			break
		}
		body.WriteString(l)
		body.WriteByte('\n')
	}
	ident := regexp.MustCompile("`([A-Za-z][A-Za-z0-9_]*)`")
	seen := map[string]bool{}
	var keys []string
	for _, m := range ident.FindAllStringSubmatch(body.String(), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			keys = append(keys, m[1])
		}
	}
	return keys
}

// collectKeys gathers every map key in a decoded JSON value,
// recursively.
func collectKeys(v interface{}, into map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, v2 := range x {
			into[k] = true
			collectKeys(v2, into)
		}
	case []interface{}:
		for _, v2 := range x {
			collectKeys(v2, into)
		}
	}
}

// newLiveHAFrontend stands up a minimal HA front-end for observability
// probing: one live replica, one dead one (so error fields populate),
// and a two-member quorum whose passive peer never campaigns, so the
// front-end under test is always the leader (peer progress populates).
// Returns the front-end's base URL.
func newLiveHAFrontend(t *testing.T) string {
	t.Helper()
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30 // replica mode: broadcast is the heartbeat
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	rep := httptest.NewServer(rsrv)
	t.Cleanup(rep.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a replica that was never reachable

	var clients []*fleet.Client
	for _, u := range []string{rep.URL, dead.URL} {
		c, err := fleet.NewClient(u, fleet.ClientConfig{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{
		HealthInterval: 10 * time.Millisecond,
		FailAfter:      1,
		ReviveAfter:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bcast := fleet.NewBroadcaster(clients, fleet.BroadcasterConfig{Window: 2 * time.Millisecond})
	front, err := fleet.NewFrontend(pool, bcast)
	if err != nil {
		t.Fatal(err)
	}

	// Listeners must exist before the nodes (the peer map needs URLs);
	// handlers are swapped in once the nodes exist.
	var mu sync.Mutex
	var feH, peerH http.Handler
	serveVia := func(h *http.Handler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			cur := *h
			mu.Unlock()
			if cur == nil {
				http.Error(w, "not up yet", http.StatusServiceUnavailable)
				return
			}
			cur.ServeHTTP(w, r)
		}
	}
	feTS := httptest.NewServer(serveVia(&feH))
	t.Cleanup(feTS.Close)
	peerTS := httptest.NewServer(serveVia(&peerH))
	t.Cleanup(peerTS.Close)

	peers := map[string]string{"fe1": feTS.URL, "fe2": peerTS.URL}
	base := t.TempDir()
	node1, err := quorum.Open(quorum.Config{
		ID: "fe1", Peers: peers, Dir: filepath.Join(base, "fe1"),
		ElectionTimeout: 80 * time.Millisecond,
		Heartbeat:       20 * time.Millisecond,
		RPCTimeout:      500 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	node2, err := quorum.Open(quorum.Config{
		ID: "fe2", Peers: peers, Dir: filepath.Join(base, "fe2"),
		ElectionTimeout: 10 * time.Minute, // never campaigns: fe1 stays leader
		Heartbeat:       20 * time.Millisecond,
		RPCTimeout:      500 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.UseQuorum(node1); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	// The full observability plane, as cmd/friendserve installs it, so
	// the envelope keys the docs name are all live: build + trace + an
	// admission controller, with head sampling on every request.
	srv.SetBuild(obs.NewBuild("fe1"))
	srv.SetTracer(obs.NewTracer(obs.Config{Node: "fe1", SampleEvery: 1}))
	srv.SetAdmission(admission.New(admission.Config{}))
	srv.MountQuorum(node1.Handler())
	mu.Lock()
	feH, peerH = srv, node2.Handler()
	mu.Unlock()
	node1.Start()
	node2.Start()
	t.Cleanup(func() {
		front.Close() // closes node1
		node2.Close()
	})

	deadline := time.Now().Add(10 * time.Second)
	for !node1.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("fe1 never won the election against a passive peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return feTS.URL
}

func getJSONValue(t *testing.T, url string) interface{} {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v interface{}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return v
}

// TestObservabilityDocsKeyDrift: every key docs/observability.md
// pins — /v1/stats envelope keys, /debug/traces record keys, and
// /metrics metric names — must exist in live responses from an HA
// front-end running the full obs plane. A traced request (sampled
// traceparent, so the recorder holds a cross-process-shaped trace) is
// driven first so span-level keys populate.
func TestObservabilityDocsKeyDrift(t *testing.T) {
	md, err := os.ReadFile(filepath.Join("docs", "observability.md"))
	if err != nil {
		t.Fatal(err)
	}
	statsKeys := sectionKeys(t, string(md), "### Stats keys")
	traceKeys := sectionKeys(t, string(md), "### Trace record keys")
	metricNames := sectionKeys(t, string(md), "### Metrics names")
	if len(statsKeys) < 10 || len(traceKeys) < 10 || len(metricNames) < 10 {
		t.Fatalf("extracted %d/%d/%d documented keys — extraction broken?",
			len(statsKeys), len(traceKeys), len(metricNames))
	}

	base := newLiveHAFrontend(t)
	// One traced request, joining an external trace so the flight
	// recorder gets a record with a parented span.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	live := map[string]bool{}
	collectKeys(getJSONValue(t, base+"/v1/stats"), live)
	for _, k := range statsKeys {
		if !live[k] {
			t.Errorf("documented stats key %q absent from live /v1/stats", k)
		}
	}

	traceLive := map[string]bool{}
	collectKeys(getJSONValue(t, base+"/debug/traces/4bf92f3577b34da6a3ce929d0e0e4736"), traceLive)
	collectKeys(getJSONValue(t, base+"/debug/slowlog"), traceLive)
	for _, k := range traceKeys {
		if !traceLive[k] {
			t.Errorf("documented trace key %q absent from live /debug/traces", k)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range metricNames {
		if !strings.Contains(string(body), name) {
			t.Errorf("documented metric %q absent from live /metrics", name)
		}
	}
}

// TestDocsStatsKeyDrift: every key named (backticked) in the
// observability sections of docs/fleet.md must exist in a live
// /v1/stats or /v2/replog response from an HA front-end. Live keys are
// polled because some populate asynchronously (probe failures, the
// takeover record committing, peer progress).
func TestDocsStatsKeyDrift(t *testing.T) {
	md, err := os.ReadFile(filepath.Join("docs", "fleet.md"))
	if err != nil {
		t.Fatal(err)
	}
	docKeys := sectionKeys(t, string(md), "## Observability")
	docKeys = append(docKeys, sectionKeys(t, string(md), "### HA knobs and observability")...)
	if len(docKeys) < 15 {
		t.Fatalf("extracted only %d documented keys from docs/fleet.md — extraction broken?", len(docKeys))
	}

	base := newLiveHAFrontend(t)
	// The heartbeat block is pinned both ways: exactly the keys the
	// Observability section names (plus their Counters wrapper).
	stats := getJSONValue(t, base+"/v1/stats").(map[string]interface{})
	bcast := map[string]bool{}
	collectKeys(stats["Backend"].(map[string]interface{})["Broadcast"], bcast)
	if want := map[string]bool{"Counters": true, "Batches": true, "Failures": true, "LagMS": true}; !reflect.DeepEqual(bcast, want) {
		t.Errorf("live Broadcast stats keys = %v, want exactly %v", bcast, want)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := map[string]bool{}
		collectKeys(getJSONValue(t, base+"/v1/stats"), live)
		collectKeys(getJSONValue(t, base+"/v2/replog?from=1"), live)
		var missing []string
		for _, k := range docKeys {
			if !live[k] {
				missing = append(missing, k)
			}
		}
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			sort.Strings(missing)
			var got []string
			for k := range live {
				got = append(got, k)
			}
			sort.Strings(got)
			t.Fatalf("documented stats keys absent from live responses: %v\nlive keys: %v", missing, got)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
