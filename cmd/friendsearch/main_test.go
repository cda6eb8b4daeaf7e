package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tagstore"
)

var latencyRE = regexp.MustCompile(`latency=\S+`)

// TestGoldenParity replays testdata/cases.txt against the outputs the
// parent commit's binary (the one built on exec.Executor) wrote for
// them; see testdata/README.md. Three differences are allowed: the
// latency value, and the constants "cache_hit=false generation=0" and
// "residual=0.0000" (horizons are never truncated, so there is no
// residual to print) a one-shot process no longer prints.
func TestGoldenParity(t *testing.T) {
	cases, err := os.ReadFile(filepath.Join("testdata", "cases.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(cases)), "\n") {
		fields := strings.Fields(line)
		name, args := fields[0], fields[1:]
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Replace(string(golden), " cache_hit=false generation=0", "", 1)
			want = strings.Replace(want, " residual=0.0000", "", 1)
			var out bytes.Buffer
			err = run(append([]string{"-data", filepath.Join("testdata", "corpus.frnd")}, args...), &out)
			if err != nil {
				out.WriteString("error: " + err.Error() + "\n")
			}
			if strings.HasPrefix(want, "error: ") != (err != nil) {
				t.Fatalf("run error = %v, golden:\n%s", err, want)
			}
			got := latencyRE.ReplaceAllString(out.String(), "latency=*")
			want = latencyRE.ReplaceAllString(want, "latency=*")
			if got != want {
				t.Errorf("output differs from the parent's\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

func TestParseTags(t *testing.T) {
	got, err := parseTags("3,9, 12")
	if err != nil {
		t.Fatal(err)
	}
	want := []tagstore.TagID{3, 9, 12}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTags = %v, want %v", got, want)
	}
	single, err := parseTags("0")
	if err != nil || len(single) != 1 || single[0] != 0 {
		t.Fatalf("parseTags single = %v, %v", single, err)
	}
}

func TestParseTagsErrors(t *testing.T) {
	for _, s := range []string{"", "  ", "a,b", "3,", "3,-1", "3.5"} {
		if _, err := parseTags(s); err == nil {
			t.Errorf("parseTags(%q) accepted", s)
		}
	}
}
