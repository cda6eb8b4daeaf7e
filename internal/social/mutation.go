package social

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/search"
	"repro/internal/vocab"
)

// MutationKind names what a Mutation changes, spelled as the
// replication wire (POST /v2/apply) spells it.
type MutationKind string

const (
	// kindSkip (the zero Kind, absent on the wire) carries only an LSN:
	// the record is processed — the cursor moves — and nothing is
	// applied.
	kindSkip MutationKind = ""
	// KindBefriend declares or strengthens the friendship User–Friend
	// with Weight.
	KindBefriend MutationKind = "befriend"
	// KindTag records that User annotated Item with Tag.
	KindTag MutationKind = "tag"
)

// Known reports whether k is a kind a record may carry: befriend, tag
// or the skip.
func (k MutationKind) Known() bool {
	return k == kindSkip || k == KindBefriend || k == KindTag
}

// Mutation is one state change in the form every layer shares: the
// public mutators build one, Validate vets it, a Journal logs it,
// recovery hands it back to Replay, and a replication page carries it
// to a replica as JSON.
type Mutation struct {
	Kind MutationKind `json:"kind,omitempty"`
	// LSN, when positive, is the fleet replication log sequence number
	// the mutation was stamped with; 0 is a plain local write.
	LSN    uint64  `json:"lsn"`
	User   string  `json:"user,omitempty"`
	Friend string  `json:"friend,omitempty"` // KindBefriend
	Weight float64 `json:"weight,omitempty"` // KindBefriend, in (0, 1]
	Item   string  `json:"item,omitempty"`   // KindTag
	Tag    string  `json:"tag,omitempty"`    // KindTag
}

// Validate is the one rule every mutation is held to, by the funnel
// before anything changes and by a fleet front-end before it logs a
// record for the whole fleet: names are non-blank and free of line
// breaks (the persistence format is line-based), a friendship joins two
// different users and its weight lies in (0, 1] (NaN does not).
// Rejections are search.ErrInvalid.
func (m Mutation) Validate() error {
	switch m.Kind {
	case KindBefriend:
		if err := validateNames(m.User, m.Friend); err != nil {
			return err
		}
		if m.User == m.Friend {
			return search.WrapInvalid(fmt.Errorf("social: self-friendship for %q", m.User))
		}
		if !(m.Weight > 0 && m.Weight <= 1) {
			return search.WrapInvalid(fmt.Errorf("social: weight %g outside (0,1]", m.Weight))
		}
		return nil
	case KindTag:
		return validateNames(m.User, m.Item, m.Tag)
	}
	return search.WrapInvalid(fmt.Errorf("social: mutation kind %q carries nothing to apply", m.Kind))
}

func validateNames(names ...string) error {
	for _, n := range names {
		if strings.TrimSpace(n) == "" {
			return search.WrapInvalid(errors.New("social: empty name in mutation"))
		}
		if strings.ContainsAny(n, "\n\r") {
			return search.WrapInvalid(fmt.Errorf("social: name %q contains line breaks", n))
		}
	}
	return nil
}

// ErrReplicationGap reports an LSN-stamped mutation that arrived out of
// order: the record's LSN is more than one ahead of the service's
// replication cursor, so applying it would silently skip history. The
// sender must stream the missing records first (the fleet's catch-up
// path); transports map the class to 409.
var ErrReplicationGap = errors.New("social: replication gap")

// Befriend declares (or strengthens) a friendship between two users,
// creating them as needed. Weight ∈ (0, 1].
func (s *Service) Befriend(a, b string, weight float64) error {
	return s.Apply(Mutation{Kind: KindBefriend, User: a, Friend: b, Weight: weight})
}

// Tag records that a user annotated an item with a tag, creating any of
// the three as needed.
func (s *Service) Tag(user, item, tag string) error {
	return s.Apply(Mutation{Kind: KindTag, User: user, Item: item, Tag: tag})
}

// TagAt applies a tagging record stamped with replication LSN lsn. It
// is kept only because benchmarks/fleetbench (its social.write_us
// probe) compiles against it; everything else calls Apply.
func (s *Service) TagAt(lsn uint64, user, item, tag string) error {
	return s.Apply(Mutation{Kind: KindTag, LSN: lsn, User: user, Item: item, Tag: tag})
}

// Apply is the mutation funnel — the only way live state changes, and
// the replica's replication entry point (each record of a POST
// /v2/apply page). A record with an LSN is a replication record: it is
// applied with idempotent dedup and strict ordering, and a zero Kind
// only advances the cursor past it (a quorum leadership record). LSN 0
// is a plain local write. In order:
//
//  1. cursor discipline: a stamped record at or below the cursor is
//     already processed (nil), one past cursor+1 is a gap
//     (ErrReplicationGap); a skip ends here with the cursor moved;
//  2. validation, once, before anything changes. A stamped record that
//     fails it still counts as processed: every replica rejects the
//     identical record identically, and skipping it in lockstep —
//     unjournaled, so a restarted replica is re-streamed it and
//     re-skips it — is what keeps the fleet bit-identical;
//  3. the journal append, when one is attached. A failed append leaves
//     memory, cursor and log exactly as they were;
//  4. the apply, then the compaction policy (noteWrite). Validation
//     already passed, so on a journaled service a failure here means
//     log and memory disagree: the service latches ErrBroken;
//  5. the journal's checkpoint policy.
func (s *Service) Apply(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.LSN != 0 {
		switch {
		case m.LSN <= s.appliedLSN:
			return nil
		case m.LSN != s.appliedLSN+1:
			return fmt.Errorf("%w: record lsn %d, applied %d", ErrReplicationGap, m.LSN, s.appliedLSN)
		}
	}
	if m.Kind == kindSkip {
		s.advanceCursor(m.LSN)
		return nil
	}
	if err := m.Validate(); err != nil {
		s.advanceCursor(m.LSN)
		return err
	}
	checkpointDue := false
	if s.journal != nil {
		if s.broken {
			return ErrBroken
		}
		var err error
		if checkpointDue, err = s.journal.Append(m); err != nil {
			return err
		}
	}
	s.advanceCursor(m.LSN)
	if err := s.applyLocked(m); err != nil {
		if s.journal == nil {
			return err
		}
		s.broken = true
		return fmt.Errorf("%w (cause: %v)", ErrBroken, err)
	}
	if checkpointDue {
		if err := s.checkpointLocked(); err != nil {
			return fmt.Errorf("social: auto-checkpoint: %w", err)
		}
	}
	return nil
}

// advanceCursor moves the replication cursor to a stamped record's LSN
// (plain writes, lsn 0, leave it alone). Advance-only, so Replay can
// restore a cursor from records whose stamps have gaps. Callers hold
// s.mu.
func (s *Service) advanceCursor(lsn uint64) {
	if lsn > s.appliedLSN {
		s.appliedLSN = lsn
	}
}

// applyLocked interns the mutation's names, records it in the overlay
// and runs the compaction policy. It enforces only what the state
// itself requires (vocab and overlay invariants), not Validate's rule —
// Replay feeds it records an older validator accepted. Callers hold
// s.mu.
func (s *Service) applyLocked(m Mutation) error {
	switch m.Kind {
	case KindBefriend:
		ua, err := s.intern(s.names.Users, m.User, s.overlay.AddUser)
		if err != nil {
			return err
		}
		ub, err := s.intern(s.names.Users, m.Friend, s.overlay.AddUser)
		if err != nil {
			return err
		}
		if err := s.overlay.Befriend(ua, ub, m.Weight); err != nil {
			return err
		}
	case KindTag:
		u, err := s.intern(s.names.Users, m.User, s.overlay.AddUser)
		if err != nil {
			return err
		}
		i, err := s.intern(s.names.Items, m.Item, s.overlay.AddItem)
		if err != nil {
			return err
		}
		tg, err := s.intern(s.names.Tags, m.Tag, s.overlay.AddTag)
		if err != nil {
			return err
		}
		if err := s.overlay.Tag(u, i, tg); err != nil {
			return err
		}
	default:
		return fmt.Errorf("social: mutation kind %q carries nothing to apply", m.Kind)
	}
	return s.noteWrite()
}

// intern resolves a name in one of the three live dictionaries, growing
// the matching overlay universe when the name is new. It is the only
// writer of live dictionaries; the view's clones of them stay readable
// while it adds. Callers hold s.mu.
func (s *Service) intern(d *vocab.Dict, name string, grow func() int32) (int32, error) {
	if id, ok := d.ID(name); ok {
		return id, nil
	}
	id, err := d.Add(name)
	if err != nil {
		return 0, err
	}
	if got := grow(); got != id {
		return 0, fmt.Errorf("social: id drift for %q (%d vs %d)", name, got, id)
	}
	return id, nil
}
