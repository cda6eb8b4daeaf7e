package durable

import (
	"testing"

	"repro/internal/social"
	"repro/internal/wal"
)

// FuzzDecodeMutation feeds DecodeMutation what a log on disk could hold:
// any record type with any payload. Decoding must never panic, and a
// record that decodes to a befriend or a tag must survive the trip back
// through EncodeMutation — same record type, and a payload that decodes
// to the same mutation. A term record decodes to the skip, which has no
// record of its own to encode to.
func FuzzDecodeMutation(f *testing.F) {
	for _, m := range []social.Mutation{
		{Kind: social.KindBefriend, User: "alice", Friend: "bob", Weight: 0.9},
		{Kind: social.KindBefriend, LSN: 300, User: "a", Friend: "b", Weight: 1},
		{Kind: social.KindTag, User: "carol", Item: "pizza-place", Tag: "pizza"},
		{Kind: social.KindTag, LSN: 1, User: "", Item: "", Tag: ""},
	} {
		typ, payload, err := EncodeMutation(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(typ), payload)
	}
	f.Add(uint8(RecTerm), EncodeTerm(7, "node-2"))
	f.Add(uint8(RecBefriend), []byte{0x05, 'a'})
	f.Add(uint8(RecTagAt), []byte{0x00})
	f.Add(uint8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		m, err := DecodeMutation(wal.Record{LSN: 1, Type: wal.Type(typ), Data: payload})
		if err != nil || wal.Type(typ) == RecTerm {
			return
		}
		typ2, payload2, err := EncodeMutation(m)
		if err != nil {
			t.Fatalf("type %d %x decoded to %+v, which does not encode: %v", typ, payload, m, err)
		}
		if typ2 != wal.Type(typ) {
			t.Fatalf("type %d %x decoded to %+v, which encodes as type %d", typ, payload, m, typ2)
		}
		again, err := DecodeMutation(wal.Record{LSN: 1, Type: typ2, Data: payload2})
		if err != nil {
			t.Fatalf("type %d %x: re-encoded %x does not decode: %v", typ, payload, payload2, err)
		}
		if again != m {
			t.Fatalf("type %d %x: decoded %+v, after a round trip %+v", typ, payload, m, again)
		}
	})
}
