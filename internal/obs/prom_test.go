package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestWriteProm(t *testing.T) {
	type inner struct {
		URL      string
		Healthy  bool
		Requests int64
	}
	// Embedded by pointer, as social.Stats embeds its journal counters.
	type Durability struct{ LogSegments int }
	type Absent struct{ Never int }
	type stats struct {
		*Durability
		*Absent      // nil: contributes nothing
		Hits         int64
		HitRate      float64
		OKOnDeadline int64
		Wait         time.Duration
		Latency      metrics.HistogramSnapshot
		Replicas     []inner
		PerClass     map[string]int64
		Since        time.Time // must be skipped
	}
	v := stats{
		Durability:   &Durability{LogSegments: 2},
		Hits:         42,
		HitRate:      0.75,
		OKOnDeadline: 7,
		Wait:         1500 * time.Millisecond,
		Latency: metrics.HistogramSnapshot{
			Count: 3, P50: 10 * time.Millisecond, P95: 20 * time.Millisecond,
			P99: 30 * time.Millisecond, P999: 40 * time.Millisecond, Max: 50 * time.Millisecond,
		},
		Replicas: []inner{{URL: "http://r0", Healthy: true, Requests: 5}},
		PerClass: map[string]int64{"b": 2, "a\"x": 1},
		Since:    time.Now(),
	}
	var sb strings.Builder
	WriteProm(&sb, "friendserve", v)
	out := sb.String()

	for _, want := range []string{
		"friendserve_log_segments 2\n", // flattened: no durability_ infix
		"friendserve_hits 42\n",
		"friendserve_hit_rate 0.75\n",
		"friendserve_ok_on_deadline 7\n",
		"friendserve_wait_seconds 1.5\n",
		`friendserve_latency_seconds{quantile="0.5"} 0.01` + "\n",
		`friendserve_latency_seconds{quantile="0.999"} 0.04` + "\n",
		"friendserve_latency_count 3\n",
		"friendserve_latency_max_seconds 0.05\n",
		`friendserve_replicas_info{replica="0",url="http://r0"} 1` + "\n",
		`friendserve_replicas_healthy{replica="0"} 1` + "\n",
		`friendserve_replicas_requests{replica="0"} 5` + "\n",
		`friendserve_per_class{key="a\"x"} 1` + "\n",
		`friendserve_per_class{key="b"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	if strings.Contains(out, "never") || strings.Contains(out, "durability") {
		t.Errorf("embedded struct rendered under its own name, or a nil one at all:\n%s", out)
	}
	if strings.Contains(out, "since") {
		t.Errorf("time.Time field leaked into exposition:\n%s", out)
	}
	// Sorted map keys ⇒ deterministic output.
	var sb2 strings.Builder
	WriteProm(&sb2, "friendserve", v)
	if sb2.String() != out {
		t.Fatal("exposition not deterministic across calls")
	}
	// Every line must be name{labels} value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLineRE(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// promLineRE validates one exposition line without regexp: metric name,
// optional {labels}, space, float.
func promLineRE(line string) bool {
	name, rest, ok := cutAny(line)
	if !ok || name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		if !(alpha || i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return rest != ""
}

// cutAny splits a sample line at the brace or the space preceding its
// value.
func cutAny(line string) (name, rest string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i || j+2 > len(line) || line[j+1] != ' ' {
			return "", "", false
		}
		return line[:i], line[j+2:], true
	}
	name, rest, found := strings.Cut(line, " ")
	return name, rest, found
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Hits":         "hits",
		"HitRate":      "hit_rate",
		"OKOnDeadline": "ok_on_deadline",
		"AppliedLSN":   "applied_lsn",
		"P99":          "p99",
		"HTTPStatus":   "http_status",
		"URL":          "url",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabelValue = %q", got)
	}
}
