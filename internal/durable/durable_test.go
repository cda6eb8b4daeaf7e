package durable

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/wal"
)

// seedMutations drives a small deterministic workload into any service
// exposing the mutation API.
type mutator interface {
	Befriend(a, b string, weight float64) error
	Tag(user, item, tag string) error
}

func seedMutations(t *testing.T, m mutator) {
	t.Helper()
	steps := []func() error{
		func() error { return m.Befriend("alice", "bob", 0.9) },
		func() error { return m.Befriend("bob", "carol", 0.8) },
		func() error { return m.Befriend("alice", "dave", 0.5) },
		func() error { return m.Tag("bob", "luigis", "pizza") },
		func() error { return m.Tag("bob", "luigis", "italian") },
		func() error { return m.Tag("carol", "marios", "pizza") },
		func() error { return m.Tag("dave", "sushiko", "sushi") },
		func() error { return m.Tag("dave", "marios", "pizza") },
		func() error { return m.Tag("alice", "sushiko", "sushi") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("seed step %d: %v", i, err)
		}
	}
}

// searchExact runs a ModeExact query.
func searchExact(s *social.Service, seeker string, tags []string, k int) ([]search.Result, error) {
	resp, err := s.Do(context.Background(), search.Request{Seeker: seeker, Tags: tags, K: k, Mode: search.ModeExact})
	return resp.Results, err
}

func searchNames(t *testing.T, s *social.Service, seeker string, tags []string, k int) []string {
	t.Helper()
	res, err := searchExact(s, seeker, tags, k)
	if err != nil {
		t.Fatalf("Search(%s,%v): %v", seeker, tags, err)
	}
	names := make([]string, len(res))
	for i, r := range res {
		names[i] = r.Item
	}
	return names
}

func TestOpenEmptyAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Users != 0 || got.RecoveredRecords != 0 {
		t.Fatalf("fresh stats = %+v", got)
	}
	seedMutations(t, s)
	// marios accumulates two social paths (carol 0.26 + dave 0.30), which
	// beats bob's luigis (0.54) under the default α = 0.6 damping.
	want := searchNames(t, s, "alice", []string{"pizza"}, 3)
	if len(want) != 2 || want[0] != "marios" || want[1] != "luigis" {
		t.Fatalf("pre-crash search = %v, want [marios luigis]", want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: pure log replay, no snapshot yet.
	s2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().RecoveredRecords; got != 9 {
		t.Fatalf("recovered %d records, want 9", got)
	}
	if got := searchNames(t, s2, "alice", []string{"pizza"}, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery search = %v, want %v", got, want)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.SegmentBytes = 256 // force several segments
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotBarrier != 10 {
		t.Fatalf("barrier = %d, want 10 (nine records folded)", st.SnapshotBarrier)
	}
	if st.LogSegments != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", st.LogSegments)
	}
	// Post-checkpoint mutations land in the fresh log tail.
	if err := s.Tag("alice", "marios", "pizza"); err != nil {
		t.Fatal(err)
	}
	want := searchNames(t, s, "alice", []string{"pizza"}, 3)
	s.Close()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().RecoveredRecords; got != 1 {
		t.Fatalf("recovered %d records after checkpoint, want 1 (only the tail)", got)
	}
	if got := searchNames(t, s2, "alice", []string{"pizza"}, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-checkpoint recovery = %v, want %v", got, want)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 4
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedMutations(t, s) // 9 mutations → 2 auto-checkpoints at 4 and 8
	st := s.Stats()
	if st.SnapshotBarrier == 0 || st.WritesSinceCheckpoint != 1 {
		t.Fatalf("auto-checkpoint did not fire as expected: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapshotPrefix) {
			snaps++
		}
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp dir %s", e.Name())
		}
	}
	if snaps != 1 {
		t.Fatalf("found %d snapshot dirs, want exactly 1 (old ones cleaned)", snaps)
	}
}

func TestTornTailLosesOnlyLastRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	s.Close()

	tearTail(t, dir)

	s2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats().RecoveredRecords; got != 8 {
		t.Fatalf("recovered %d records, want 8 (final record torn)", got)
	}
	// The torn record was alice tagging sushiko; the pizza ranking is
	// untouched by its loss.
	if got := searchNames(t, s2, "alice", []string{"pizza"}, 2); !reflect.DeepEqual(got, []string{"marios", "luigis"}) {
		t.Fatalf("search after torn-tail recovery = %v, want [marios luigis]", got)
	}
}

func TestManifestPointsAtMissingSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Damage: remove the snapshot dir but keep MANIFEST.
	if err := os.RemoveAll(filepath.Join(dir, manifest{barrier: 10, gen: 1}.snapDir())); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DefaultConfig()); err == nil {
		t.Fatal("Open succeeded with MANIFEST pointing at a missing snapshot")
	}
}

func TestCorruptSnapshotIndexRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, manifest{barrier: 10, gen: 1}.snapDir(), "data.frnd")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DefaultConfig()); err == nil {
		t.Fatal("Open accepted a corrupt snapshot index")
	}
}

func TestValidationRejectsBadInput(t *testing.T) {
	s, err := Open(t.TempDir(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []error{
		s.Befriend("", "bob", 0.5),
		s.Befriend("alice", "bob", 0),
		s.Befriend("alice", "bob", 1.5),
		s.Befriend("alice", "alice", 0.5),
		s.Befriend("a\nb", "bob", 0.5),
		s.Tag("", "item", "tag"),
		s.Tag("user", "it\rem", "tag"),
	}
	for i, err := range cases {
		if err == nil {
			t.Errorf("case %d: invalid mutation accepted", i)
		}
	}
	// Nothing may have reached the log.
	if got := s.Stats().WritesSinceCheckpoint; got != 0 {
		t.Fatalf("invalid mutations were logged: %d writes", got)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	a, b, w, err := DecodeBefriend(EncodeBefriend("alice", "bob", 0.75))
	if err != nil || a != "alice" || b != "bob" || w != 0.75 {
		t.Fatalf("befriend round trip = %q %q %g %v", a, b, w, err)
	}
	u, i, tg, err := DecodeTag(EncodeTag("user", "an item with spaces", "tag"))
	if err != nil || u != "user" || i != "an item with spaces" || tg != "tag" {
		t.Fatalf("tag round trip = %q %q %q %v", u, i, tg, err)
	}
	// Truncated and trailing-garbage payloads must be rejected.
	good := EncodeTag("u", "i", "t")
	for cut := 0; cut < len(good); cut++ {
		if _, _, _, err := DecodeTag(good[:cut]); err == nil {
			t.Errorf("DecodeTag accepted %d-byte prefix", cut)
		}
	}
	if _, _, _, err := DecodeTag(append(good, 0)); err == nil {
		t.Error("DecodeTag accepted trailing garbage")
	}
	bf := EncodeBefriend("a", "b", 0.5)
	for cut := 0; cut < len(bf); cut++ {
		if _, _, _, err := DecodeBefriend(bf[:cut]); err == nil {
			t.Errorf("DecodeBefriend accepted %d-byte prefix", cut)
		}
	}
	// DecodeMutation inverts EncodeMutation for every kind, stamped and
	// plain; a leadership record decodes to the zero Kind (a skip).
	for _, m := range []social.Mutation{
		{Kind: social.KindBefriend, User: "alice", Friend: "bob", Weight: 0.75},
		{Kind: social.KindBefriend, LSN: 9, User: "alice", Friend: "bob", Weight: 0.75},
		{Kind: social.KindTag, User: "user", Item: "an item", Tag: "tag"},
		{Kind: social.KindTag, LSN: 10, User: "user", Item: "an item", Tag: "tag"},
	} {
		typ, payload, err := EncodeMutation(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeMutation(wal.Record{Type: typ, Data: payload}); err != nil || got != m {
			t.Errorf("mutation round trip = %+v, %v; want %+v", got, err, m)
		}
	}
	if got, err := DecodeMutation(wal.Record{Type: RecTerm, Data: EncodeTerm(3, "fe1")}); err != nil || got != (social.Mutation{}) {
		t.Errorf("term record decoded to %+v, %v; want the zero (skip) mutation", got, err)
	}
	if _, err := DecodeMutation(wal.Record{Type: 99}); err == nil {
		t.Error("DecodeMutation accepted an unknown record type")
	}
}

// TestRandomizedCrashRecovery is the package's central property: for a
// random workload with a crash (reopen) at a random point and random
// checkpoint cadence, the recovered service must answer every seeker's
// query exactly like an in-memory reference that saw the same
// acknowledged mutations.
func TestRandomizedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized recovery is not short")
	}
	rng := rand.New(rand.NewSource(1))
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}
	items := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9"}
	tags := []string{"t0", "t1", "t2"}

	for trial := 0; trial < 6; trial++ {
		dir := t.TempDir()
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 1 + rng.Intn(20)
		cfg.SegmentBytes = 512

		ref, err := social.NewService(cfg.Service)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}

		nOps := 30 + rng.Intn(60)
		crashAt := rng.Intn(nOps)
		for op := 0; op < nOps; op++ {
			if op == crashAt {
				// "Crash": drop the handle without checkpointing. Close
				// only syncs (which SyncAlways already did per-append).
				s.Close()
				s, err = Open(dir, cfg)
				if err != nil {
					t.Fatalf("trial %d: reopen at op %d: %v", trial, op, err)
				}
			}
			if rng.Intn(3) == 0 {
				a, b := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
				if a == b {
					continue
				}
				w := 0.1 + 0.9*rng.Float64()
				if err := s.Befriend(a, b, w); err != nil {
					t.Fatal(err)
				}
				if err := ref.Befriend(a, b, w); err != nil {
					t.Fatal(err)
				}
			} else {
				u := users[rng.Intn(len(users))]
				it := items[rng.Intn(len(items))]
				tg := tags[rng.Intn(len(tags))]
				if err := s.Tag(u, it, tg); err != nil {
					t.Fatal(err)
				}
				if err := ref.Tag(u, it, tg); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Final crash+recover, then compare every (seeker, tag) query.
		s.Close()
		s, err = Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, seeker := range ref.Users() {
			for _, tg := range tags {
				want, err := searchExact(ref, seeker, []string{tg}, 5)
				if err != nil {
					continue // tag not yet known to the reference
				}
				got, err := searchExact(s, seeker, []string{tg}, 5)
				if err != nil {
					t.Fatalf("trial %d: recovered Search(%s,%s): %v", trial, seeker, tg, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Search(%s,%s) diverged:\n got %v\nwant %v",
						trial, seeker, tg, got, want)
				}
			}
		}
		s.Close()
	}
}

func TestSyncManualGroupCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Sync = wal.SyncManual
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().RecoveredRecords; got != 9 {
		t.Fatalf("recovered %d, want 9", got)
	}
}

func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "durable-example")
	defer os.RemoveAll(dir)

	svc, _ := Open(dir, DefaultConfig())
	svc.Befriend("alice", "bob", 0.9)
	svc.Tag("bob", "luigis", "pizza")
	svc.Close()

	// Reopen: state survives the restart.
	svc2, _ := Open(dir, DefaultConfig())
	defer svc2.Close()
	res, _ := searchExact(svc2, "alice", []string{"pizza"}, 1)
	fmt.Println(res[0].Item)
	// Output: luigis
}

// TestDoBatchSeesAcknowledgedWrites: batch reads honour the durable
// read contract (pending mutations folded in first), report errors per
// query, and agree with sequential Do.
func TestDoBatchSeesAcknowledgedWrites(t *testing.T) {
	s, err := Open(t.TempDir(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedMutations(t, s)
	out := s.DoBatch(context.Background(), []search.Request{
		{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "nobody", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "alice", Tags: []string{"sushi"}, K: 2, Mode: search.ModeExact},
	})
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good queries failed: %+v", out)
	}
	if out[1].Err == nil {
		t.Fatal("unknown seeker did not fail")
	}
	want := searchNames(t, s, "alice", []string{"pizza"}, 3)
	got := make([]string, len(out[0].Response.Results))
	for i, r := range out[0].Response.Results {
		got[i] = r.Item
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch %v != sequential %v", got, want)
	}
	// The seeker cache behind the batch path surfaces in Stats.
	if st := s.Stats(); st.SeekerCache.Hits+st.SeekerCache.Misses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", st.SeekerCache)
	}
}
