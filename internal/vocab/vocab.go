// Package vocab maps external string names (user handles, item URLs,
// tag words) to the dense integer ids the engine works with, and back.
// It is the thin dictionary layer any real deployment puts between its
// application data and this library, with a line-oriented persistence
// format so corpora can ship with readable vocabularies.
package vocab

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"strings"
	"sync/atomic"
)

// Dict is an append-only string ↔ dense-id dictionary. Ids are assigned
// in insertion order starting at 0. The zero value is not usable; use
// New.
//
// Lookups go through an open-addressing index over names: a
// power-of-two array of int32 slots that hold id+1, or 0 when free, probed
// linearly from the name's hash and kept at most half full. A name
// costs its string header in names plus 8–16 B of index
// (BenchmarkDictSet reports both).
//
// Clone is O(1): a clone shares names[:n:n] and the index. Only the
// dictionary that owns an index writes to it, and it stores slots
// atomically, so a clone may be read from any goroutine while its
// source keeps adding. A clone reads only ids below its own length: a
// slot whose id is at or past it is skipped, and the probe continues.
// A clone copies the index on its first Add; an owner that outgrows its
// index moves to a new array and leaves its clones the old one.
type Dict struct {
	names []string
	index []atomic.Int32
	owns  bool // index is this dictionary's to write
}

// minIndex is the index size of an empty dictionary.
const minIndex = 8

// seed is the process-wide hash seed: clones share one index layout,
// and the layout cannot be predicted from outside the process.
var seed = maphash.MakeSeed()

func slot(name string, mask int) int { return int(maphash.String(seed, name)) & mask }

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{index: make([]atomic.Int32, minIndex), owns: true}
}

// Len reports the number of entries.
func (d *Dict) Len() int { return len(d.names) }

// Add interns a name, returning its id (existing or new). Empty names
// and names containing newlines are rejected (they would corrupt the
// persistence format).
func (d *Dict) Add(name string) (int32, error) {
	if name == "" {
		return 0, errors.New("vocab: empty name")
	}
	if strings.ContainsAny(name, "\n\r") {
		return 0, fmt.Errorf("vocab: name %q contains line breaks", name)
	}
	if id, ok := d.ID(name); ok {
		return id, nil
	}
	id := int32(len(d.names))
	if !d.owns || 2*(len(d.names)+1) > len(d.index) {
		d.reindex()
	}
	d.names = append(d.names, name)
	d.place(name, id)
	return id, nil
}

// reindex gives d an index of its own with room for one more name: a
// copy of the shared one with the ids past d's length cleared, or,
// when that would be over half full, a doubled one rebuilt from names.
// Ids enter an index in id order and slots never empty, so the cleared
// copy is exactly the index as it stood at d's length.
func (d *Dict) reindex() {
	n := len(d.names)
	if 2*(n+1) <= len(d.index) {
		index := make([]atomic.Int32, len(d.index))
		for i := range d.index {
			if v := d.index[i].Load(); v <= int32(n) {
				index[i].Store(v)
			}
		}
		d.index, d.owns = index, true
		return
	}
	size := len(d.index)
	for 2*(n+1) > size {
		size *= 2
	}
	d.index, d.owns = make([]atomic.Int32, size), true
	for id, name := range d.names {
		d.place(name, int32(id))
	}
}

// place stores id in the first free slot of name's probe sequence. Only
// an owner calls it.
func (d *Dict) place(name string, id int32) {
	mask := len(d.index) - 1
	i := slot(name, mask)
	for d.index[i].Load() != 0 {
		i = (i + 1) & mask
	}
	d.index[i].Store(id + 1)
}

// MustAdd is Add for static initialization; it panics on invalid names.
func (d *Dict) MustAdd(name string) int32 {
	id, err := d.Add(name)
	if err != nil {
		panic(err)
	}
	return id
}

// ID looks up a name.
func (d *Dict) ID(name string) (int32, bool) {
	n := int32(len(d.names))
	mask := len(d.index) - 1
	for i := slot(name, mask); ; i = (i + 1) & mask {
		v := d.index[i].Load()
		if v == 0 {
			return 0, false
		}
		if id := v - 1; id < n && d.names[id] == name {
			return id, true
		}
	}
}

// Name returns the name of an id, or "" and false when out of range.
func (d *Dict) Name(id int32) (string, bool) {
	if id < 0 || int(id) >= len(d.names) {
		return "", false
	}
	return d.names[id], true
}

// Names returns all names in id order. The slice aliases internal
// storage and must not be modified.
func (d *Dict) Names() []string { return d.names }

// Clone returns an independent copy of the dictionary in O(1): it
// shares d's names and index, and d is left as it was. Ids are
// preserved; later Adds to either copy do not affect the other, and
// the copy may be read concurrently with Adds to d.
func (d *Dict) Clone() *Dict {
	n := len(d.names)
	return &Dict{names: d.names[:n:n], index: d.index}
}

// Write persists the dictionary: one name per line, in id order.
func (d *Dict) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range d.names {
		if _, err := bw.WriteString(n); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read loads a dictionary written by Write. Duplicate lines are an
// error (they would silently alias two ids on round-trip).
func Read(r io.Reader) (*Dict, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		name := sc.Text()
		if name == "" {
			return nil, fmt.Errorf("vocab: empty name at line %d", line)
		}
		if _, ok := d.ID(name); ok {
			return nil, fmt.Errorf("vocab: duplicate name %q at line %d", name, line)
		}
		if _, err := d.Add(name); err != nil {
			return nil, fmt.Errorf("vocab: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteFile persists to a path.
func (d *Dict) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads from a path.
func ReadFile(path string) (*Dict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Set bundles the three dictionaries of a corpus.
type Set struct {
	Users *Dict
	Items *Dict
	Tags  *Dict
}

// NewSet returns three empty dictionaries.
func NewSet() *Set {
	return &Set{Users: New(), Items: New(), Tags: New()}
}

// WriteDir persists the set as users.txt, items.txt and tags.txt under
// dir (created if needed).
func (s *Set) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		d    *Dict
	}{{"users.txt", s.Users}, {"items.txt", s.Items}, {"tags.txt", s.Tags}} {
		if err := f.d.WriteFile(dir + "/" + f.name); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir loads a set persisted by WriteDir.
func ReadDir(dir string) (*Set, error) {
	s := &Set{}
	var err error
	if s.Users, err = ReadFile(dir + "/users.txt"); err != nil {
		return nil, err
	}
	if s.Items, err = ReadFile(dir + "/items.txt"); err != nil {
		return nil, err
	}
	if s.Tags, err = ReadFile(dir + "/tags.txt"); err != nil {
		return nil, err
	}
	return s, nil
}
