package vocab

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddAndLookup(t *testing.T) {
	d := New()
	a, err := d.Add("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Add("bob")
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d", a, b)
	}
	// re-adding returns the same id
	a2, err := d.Add("alice")
	if err != nil || a2 != a {
		t.Fatalf("re-add = %d,%v", a2, err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if id, ok := d.ID("bob"); !ok || id != 1 {
		t.Fatalf("ID(bob) = %d,%v", id, ok)
	}
	if _, ok := d.ID("carol"); ok {
		t.Fatal("missing name found")
	}
	if n, ok := d.Name(0); !ok || n != "alice" {
		t.Fatalf("Name(0) = %q,%v", n, ok)
	}
	if _, ok := d.Name(5); ok {
		t.Fatal("out-of-range id found")
	}
	if _, ok := d.Name(-1); ok {
		t.Fatal("negative id found")
	}
}

func TestAddValidation(t *testing.T) {
	d := New()
	if _, err := d.Add(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := d.Add("two\nlines"); err == nil {
		t.Fatal("newline name accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic")
		}
	}()
	d.MustAdd("")
}

func TestRoundTrip(t *testing.T) {
	d := New()
	for _, n := range []string{"alice", "bob", "carol with spaces", "日本語"} {
		d.MustAdd(n)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Names(), d2.Names()) {
		t.Fatalf("round trip changed names: %v vs %v", d.Names(), d2.Names())
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("alice\nalice\n")); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := Read(strings.NewReader("alice\n\nbob\n")); err == nil {
		t.Fatal("empty line accepted")
	}
}

func TestFileAndDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewSet()
	s.Users.MustAdd("alice")
	s.Items.MustAdd("http://example.com")
	s.Tags.MustAdd("golang")
	s.Tags.MustAdd("databases")
	if err := s.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Users.Len() != 1 || s2.Items.Len() != 1 || s2.Tags.Len() != 2 {
		t.Fatalf("set sizes wrong: %d/%d/%d", s2.Users.Len(), s2.Items.Len(), s2.Tags.Len())
	}
	if id, ok := s2.Tags.ID("databases"); !ok || id != 1 {
		t.Fatalf("tag id = %d,%v", id, ok)
	}
	if _, err := ReadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestPropertyRoundTripPreservesIDs(t *testing.T) {
	f := func(raw []string) bool {
		d := New()
		want := map[string]int32{}
		for _, n := range raw {
			if n == "" || strings.ContainsAny(n, "\n\r") {
				continue
			}
			id, err := d.Add(n)
			if err != nil {
				return false
			}
			if prev, ok := want[n]; ok && prev != id {
				return false
			}
			want[n] = id
		}
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			return false
		}
		d2, err := Read(&buf)
		if err != nil {
			return false
		}
		for n, id := range want {
			got, ok := d2.ID(n)
			if !ok || got != id {
				return false
			}
		}
		return d2.Len() == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneConcurrentWithAdds: readers resolve every name of a clone,
// and miss every name past it, while the clone's source keeps adding
// (growing its index through several sizes) and is cloned again, and
// while clones of the clones add names of their own. Run under -race.
func TestCloneConcurrentWithAdds(t *testing.T) {
	const total = 20000 // the index grows from 8 to 65,536 slots
	names := make([]string, total+64)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	// check asserts that c holds exactly names[:n], in order, and none
	// of the next 64.
	check := func(c *Dict, n int) error {
		if c.Len() != n {
			return fmt.Errorf("clone of %d names has Len %d", n, c.Len())
		}
		for i, name := range names[:n+64] {
			id, ok := c.ID(name)
			if i < n && (!ok || id != int32(i)) {
				return fmt.Errorf("clone of %d: ID(%q) = %d, %v", n, name, id, ok)
			}
			if i >= n && ok {
				return fmt.Errorf("clone of %d sees %q, added after it", n, name)
			}
			if got, ok := c.Name(int32(i)); ok != (i < n) || (ok && got != name) {
				return fmt.Errorf("clone of %d: Name(%d) = %q, %v", n, i, got, ok)
			}
		}
		return nil
	}
	read := func(c *Dict, n int) {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			if err := check(c, n); err != nil {
				fail(err)
				return
			}
		}
	}
	// grow adds names of its own to a clone of c, then checks that c
	// is unchanged and that the clone holds c's names plus its own.
	grow := func(c *Dict, n int) {
		defer wg.Done()
		cc := c.Clone()
		for k := 0; k < 100; k++ {
			if id := cc.MustAdd(fmt.Sprintf("own%d", k)); id != int32(n+k) {
				fail(fmt.Errorf("clone of %d: own name %d got id %d", n, k, id))
				return
			}
		}
		if err := check(c, n); err != nil {
			fail(err)
			return
		}
		for i, name := range names[:n] {
			if id, ok := cc.ID(name); !ok || id != int32(i) {
				fail(fmt.Errorf("grown clone of %d: ID(%q) = %d, %v", n, name, id, ok))
				return
			}
		}
		if _, ok := cc.ID(names[n]); ok {
			fail(fmt.Errorf("grown clone of %d sees %q", n, names[n]))
		}
	}

	src := New()
	for i, name := range names[:total] {
		src.MustAdd(name)
		if n := i + 1; n&(n-1) == 0 || n%2500 == 0 {
			c := src.Clone()
			wg.Add(2)
			go read(c, n)
			go grow(c, n)
		}
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := check(src, total); err != nil {
		t.Fatal(err)
	}
}

// FuzzDict runs scripts of Add, Clone, ID and Name over a tree of
// clones against a map-based reference per dictionary. Every
// dictionary must hold exactly its reference's names: a clone never
// sees what its source adds after it, nor the source what the clone
// adds. Ids stay dense, in insertion order, and Write/Read round-trip.
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 4, 3, 1, 200, 6, 0, 5, 100, 7, 9, 3, 0})
	f.Add([]byte{1, 255, 2, 0, 1, 255, 5, 255, 2, 0, 9, 40, 13, 7, 3, 1, 7, 250})
	f.Add([]byte{2, 0, 2, 0, 4, 1, 8, 2, 1, 30, 5, 30, 9, 30, 6, 0, 10, 0, 14, 5, 15, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxDicts, maxAdds = 32, 4096
		type ref struct {
			names []string
			ids   map[string]int32
		}
		dicts := []*Dict{New()}
		refs := []*ref{{ids: map[string]int32{}}}
		all := map[string]bool{}
		adds, fresh := 0, 0
		add := func(d *Dict, r *ref, name string) {
			adds++
			all[name] = true
			want, ok := r.ids[name]
			if !ok {
				want = int32(len(r.names))
				r.names = append(r.names, name)
				r.ids[name] = want
			}
			if got := d.MustAdd(name); got != want {
				t.Fatalf("Add(%q) = %d, want %d", name, got, want)
			}
		}
		for ; len(script) >= 2 && adds < maxAdds; script = script[2:] {
			op, arg := script[0], script[1]
			at := int(op>>2) % len(dicts)
			d, r := dicts[at], refs[at]
			switch op & 3 {
			case 0: // one name from a small pool shared by every dictionary
				add(d, r, fmt.Sprintf("p%d", arg%32))
			case 1: // a run of fresh names, enough to grow the index
				for k := 0; k < int(arg); k++ {
					add(d, r, fmt.Sprintf("f%d", fresh))
					fresh++
				}
			case 2:
				if len(dicts) < maxDicts {
					ids := make(map[string]int32, len(r.ids))
					for n, id := range r.ids {
						ids[n] = id
					}
					dicts = append(dicts, d.Clone())
					refs = append(refs, &ref{names: append([]string(nil), r.names...), ids: ids})
				}
			case 3: // lookups that may hit or miss
				for _, name := range []string{fmt.Sprintf("p%d", arg%32), fmt.Sprintf("f%d", int(arg)*fresh/256)} {
					want, wok := r.ids[name]
					if got, ok := d.ID(name); ok != wok || got != want {
						t.Fatalf("ID(%q) = %d, %v; want %d, %v", name, got, ok, want, wok)
					}
				}
				id := int32(arg) - 8
				got, ok := d.Name(id)
				if wok := id >= 0 && int(id) < len(r.names); ok != wok || (ok && got != r.names[id]) {
					t.Fatalf("Name(%d) = %q, %v with %d names", id, got, ok, len(r.names))
				}
			}
		}
		for i, d := range dicts {
			r := refs[i]
			if d.Len() != len(r.names) || !reflect.DeepEqual(append([]string{}, d.Names()...), append([]string{}, r.names...)) {
				t.Fatalf("dict %d holds %d names unlike its reference's %d", i, d.Len(), len(r.names))
			}
			for name := range all {
				want, wok := r.ids[name]
				if got, ok := d.ID(name); ok != wok || got != want {
					t.Fatalf("dict %d: ID(%q) = %d, %v; want %d, %v", i, name, got, ok, want, wok)
				}
			}
			var buf bytes.Buffer
			if err := d.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]string{}, back.Names()...), append([]string{}, r.names...)) {
				t.Fatalf("dict %d: Write/Read changed the names", i)
			}
		}
	})
}
