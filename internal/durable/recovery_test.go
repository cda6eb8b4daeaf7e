package durable

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/social"
)

// copyTree copies a directory tree (Open repairs and cleans the
// directory it is given, so fixtures are opened as copies).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportBytes is the service's state in the form replicas exchange it:
// the snapshot stream pinned at the replication cursor.
func exportBytes(t *testing.T, s *social.Service) []byte {
	t.Helper()
	g, st, names, lsn, err := s.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := social.WriteSnapshotStream(&buf, g, st, names, lsn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tearTail chops the last bytes off the newest log segment: the final
// record was being written when the process died.
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walDirName, "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments under %s: %v", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-2); err != nil {
		t.Fatal(err)
	}
}

// TestRecoversParentWrittenDirectory opens directories written by the
// commit before durable.Service was folded into social.Service (see
// testdata/parent/README.md for the script): a v2 MANIFEST and the same
// directory with the MANIFEST rewritten in the v1 form, a checkpoint,
// and an un-checkpointed log suffix holding record types 1, 2, 4 and 5
// — including a whitespace-only user name that commit accepted and
// today's validator would not. Each must recover to the state that
// commit recovered it to, byte for byte.
func TestRecoversParentWrittenDirectory(t *testing.T) {
	for _, form := range []string{"v1", "v2"} {
		dir := t.TempDir()
		copyTree(t, filepath.Join("testdata", "parent", form), dir)
		want, err := os.ReadFile(filepath.Join("testdata", "parent", form+".recovered.snap"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 0
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if got := exportBytes(t, s); !bytes.Equal(got, want) {
			t.Errorf("%s: recovered state differs from what the writing commit recovered", form)
		}
		st := s.Stats()
		if st.RecoveredRecords != 6 || st.SnapshotBarrier != 7 || s.AppliedLSN() != 7 {
			t.Errorf("%s: recovered %d records past barrier %d to cursor %d, want 6 / 7 / 7",
				form, st.RecoveredRecords, st.SnapshotBarrier, s.AppliedLSN())
		}
		// The next checkpoint migrates either form to a v3 MANIFEST at
		// generation 1. A second one at the same log position — nothing
		// logged between, as when a re-bootstrap import lands on an idle
		// replica — takes generation 2 instead of colliding with it.
		for gen := uint64(1); gen <= 2; gen++ {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint %d: %v", form, gen, err)
			}
			if m, _, err := readManifest(dir); err != nil || m.cursor != 7 || m.gen != gen {
				t.Errorf("%s: manifest after checkpoint %d: %+v, err %v; want cursor 7, generation %d", form, gen, m, err, gen)
			}
		}
		if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.HasPrefix(raw, []byte("v3\n")) {
			t.Errorf("%s: MANIFEST after checkpoint = %q, %v; want the v3 form", form, raw, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := exportBytes(t, re); !bytes.Equal(got, want) {
			t.Errorf("%s: state changed across checkpoint and reopen", form)
		}
		re.Close()
	}
}

// TestCrashAtEveryCheckpointStep rebuilds, by hand, the directory a
// crash would leave after each step of journal.Checkpoint — snapshot
// being written into .tmp-N, snapshot renamed but MANIFEST not flipped,
// MANIFEST flipped but log not truncated — and requires Open to recover
// exactly the pre-crash state from each, and to clean the leftovers.
// It does so twice: for a checkpoint after the log moved, and for a
// second checkpoint at the log position of the first.
func TestCrashAtEveryCheckpointStep(t *testing.T) {
	for _, samePosition := range []bool{false, true} {
		crashAtEveryCheckpointStep(t, samePosition)
	}
}

func crashAtEveryCheckpointStep(t *testing.T, samePosition bool) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SegmentBytes = 256
	live := t.TempDir()
	s, err := Open(live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedMutations(t, s)
	writes := func() {
		for i := 1; i <= 6; i++ {
			if err := s.Apply(social.Mutation{Kind: social.KindTag, LSN: uint64(i), User: fmt.Sprintf("u%d", i), Item: "marios", Tag: "pizza"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if samePosition {
		writes()
	}
	if err := s.Checkpoint(); err != nil { // an older checkpoint to fall back to
		t.Fatal(err)
	}
	if !samePosition {
		writes()
	}
	want := exportBytes(t, s)
	before := t.TempDir() // the directory as the second checkpoint finds it
	copyTree(t, live, before)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("same position %v: second checkpoint: %v", samePosition, err)
	}
	barrier := s.Stats().SnapshotBarrier
	s.Close()
	man, newSnap, err := readManifest(live)
	if err != nil || man.gen != 2 {
		t.Fatalf("same position %v: manifest %+v, err %v; want generation 2", samePosition, man, err)
	}

	steps := []struct {
		name  string
		build func(dir string)
	}{
		{"while writing .tmp", func(dir string) {
			tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%d", barrier))
			copyTree(t, filepath.Join(live, newSnap), tmp)
			os.Remove(filepath.Join(tmp, "tags.txt")) // half-written
		}},
		{"after rename, before MANIFEST", func(dir string) {
			copyTree(t, filepath.Join(live, newSnap), filepath.Join(dir, newSnap))
		}},
		{"after MANIFEST, before truncation", func(dir string) {
			copyTree(t, filepath.Join(live, newSnap), filepath.Join(dir, newSnap))
			raw, err := os.ReadFile(filepath.Join(live, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, step := range steps {
		dir := t.TempDir()
		copyTree(t, before, dir)
		step.build(dir)
		re, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("same position %v, crash %s: %v", samePosition, step.name, err)
		}
		if got := exportBytes(t, re); !bytes.Equal(got, want) {
			t.Errorf("same position %v, crash %s: recovered state differs from the pre-crash state", samePosition, step.name)
		}
		if got := re.AppliedLSN(); got != 6 {
			t.Errorf("same position %v, crash %s: cursor %d, want 6", samePosition, step.name, got)
		}
		// The next checkpoint succeeds whatever generation the crash left.
		if err := re.Checkpoint(); err != nil {
			t.Errorf("same position %v, crash %s: checkpoint after recovery: %v", samePosition, step.name, err)
		}
		re.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		for _, e := range entries {
			if e.IsDir() && e.Name() != walDirName {
				snaps++
			}
		}
		if snaps != 1 {
			t.Errorf("same position %v, crash %s: %d snapshot/temp directories survive, want only the live one", samePosition, step.name, snaps)
		}
	}
}

// TestJournaledMatchesVolatile is the differential behind "durability
// is a property, not a second type": a seeded script of plain and
// stamped mutations (in order, duplicated, gapped, deterministically
// rejected), cursor skips, checkpoints and snapshot imports runs
// against a journaled and a volatile service, the journaled one
// crashing (close and reopen, sometimes with a torn log tail) at random
// steps. After every reopen — once the records whose cursor advance is
// deliberately not journaled have been re-streamed, as the fleet would
// — the two must export deeply equal state at the same cursor.
func TestJournaledMatchesVolatile(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.CheckpointEvery = rng.Intn(12) // 0: explicit checkpoints only
		cfg.SegmentBytes = 384
		dir := t.TempDir()
		durable, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		volatile, err := social.NewService(cfg.Service)
		if err != nil {
			t.Fatal(err)
		}
		name := func(kind string, n int) string { return fmt.Sprintf("%s%d", kind, rng.Intn(n)) }
		// stream is the fleet log as far as it was delivered: record lsn
		// is stream[lsn-1], a zero Kind being a cursor skip.
		var stream []social.Mutation
		both := func(step int, m social.Mutation) {
			e1, e2 := durable.Apply(m), volatile.Apply(m)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("seed %d step %d: %+v: journaled err %v, volatile err %v", seed, step, m, e1, e2)
			}
		}
		randomMutation := func() social.Mutation {
			if rng.Intn(3) == 0 {
				m := social.Mutation{Kind: social.KindBefriend, User: name("u", 8), Friend: name("u", 8), Weight: 0.1 + 0.9*rng.Float64()}
				if rng.Intn(8) == 0 {
					m.Weight = 0 // deterministic rejection (as are the self-edges User == Friend draws)
				}
				return m
			}
			m := social.Mutation{Kind: social.KindTag, User: name("u", 8), Item: name("i", 10), Tag: name("t", 3)}
			if rng.Intn(10) == 0 {
				m.Item = " " // deterministic rejection
			}
			return m
		}
		compare := func(step int) {
			dg, dst, dnames, dlsn, err := durable.SnapshotWithCursor()
			if err != nil {
				t.Fatal(err)
			}
			vg, vst, vnames, vlsn, err := volatile.SnapshotWithCursor()
			if err != nil {
				t.Fatal(err)
			}
			if dlsn != vlsn || durable.AppliedLSN() != volatile.AppliedLSN() {
				t.Fatalf("seed %d step %d: cursors diverged: journaled %d, volatile %d", seed, step, dlsn, vlsn)
			}
			if !reflect.DeepEqual(dg, vg) || !reflect.DeepEqual(dst, vst) || !reflect.DeepEqual(dnames, vnames) {
				t.Fatalf("seed %d step %d: state diverged at cursor %d", seed, step, dlsn)
			}
		}
		reopen := func(step int) {
			tear := false
			if rng.Intn(3) == 0 {
				// A write in flight when the process died: appended, never
				// acknowledged, torn by the crash. The reference never saw
				// it — unless an auto-checkpoint already folded it into a
				// snapshot, which no crash can tear.
				inFlight := social.Mutation{Kind: social.KindTag, User: "torn-user", Item: "torn-item", Tag: "torn-tag"}
				if err := durable.Apply(inFlight); err != nil {
					t.Fatal(err)
				}
				if tear = durable.Stats().WritesSinceCheckpoint > 0; !tear {
					volatile.Apply(inFlight)
				}
			}
			durable.Close()
			if tear {
				tearTail(t, dir)
			}
			if durable, err = Open(dir, cfg); err != nil {
				t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
			}
			// Skips and rejections advanced the cursor without a journal
			// record; the fleet re-streams from the recovered cursor and
			// the replica re-skips them identically.
			for lsn := durable.AppliedLSN() + 1; lsn <= volatile.AppliedLSN(); lsn++ {
				m := stream[lsn-1]
				if err := durable.Apply(m); (err == nil) != (m.Kind == "") {
					t.Fatalf("seed %d step %d: re-streamed lsn %d (%+v): err %v — a journaled record was lost", seed, step, lsn, m, err)
				}
			}
			compare(step)
		}

		steps := 60 + rng.Intn(60)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(20); {
			case op < 6: // plain write
				both(step, randomMutation())
			case op < 12: // next record of the stream
				m := randomMutation()
				m.LSN = uint64(len(stream)) + 1
				stream = append(stream, m)
				both(step, m)
			case op < 13: // cursor skip (a leadership record)
				m := social.Mutation{LSN: uint64(len(stream)) + 1}
				stream = append(stream, m)
				both(step, m)
			case op < 15 && len(stream) > 0: // duplicate delivery
				both(step, stream[rng.Intn(len(stream))])
			case op < 16: // gap: refused, nothing moves
				m := randomMutation()
				m.LSN = uint64(len(stream)) + 2 + uint64(rng.Intn(3))
				both(step, m)
			case op < 17:
				if err := durable.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := volatile.Checkpoint(); err != nil { // the volatile no-op
					t.Fatal(err)
				}
			case op < 18: // bootstrap both from one exported snapshot
				raw := exportBytes(t, volatile)
				for _, s := range []*social.Service{durable, volatile} {
					g, st, names, lsn, err := social.ReadSnapshotStream(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.ImportSnapshot(g, st, names, lsn); err != nil {
						t.Fatal(err)
					}
				}
			default:
				reopen(step)
			}
		}
		reopen(steps)
		durable.Close()
	}
}
