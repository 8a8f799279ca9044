// Package kv is a replicated key-value servant: a string map with
// CDR-marshalled put and get and full state transfer support
// (ftcorba.Stateful).
package kv

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"ftmp/internal/giop"
	"ftmp/internal/orb"
)

// Store is the servant, driven in the group's delivery order.
type Store struct{ data map[string]string }

// New returns an empty store.
func New() *Store { return &Store{data: make(map[string]string)} }

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.data) }

// Invoke implements orb.Servant.
func (s *Store) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	d := giop.NewDecoder(args, false)
	switch op {
	case "put":
		k, v := d.String(), d.String()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		s.data[k] = v
		return nil, nil
	case "get":
		k := d.String()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		v, ok := s.data[k]
		if !ok {
			return nil, &orb.Exception{RepoID: "IDL:kv/NotFound:1.0"}
		}
		e := giop.NewEncoder(false)
		e.String(v)
		return e.Bytes(), nil
	default:
		return nil, orb.ExcBadOperation
	}
}

// SnapshotState implements ftcorba.Stateful: the keys in order, each
// with its value, so equal maps give equal bytes.
func (s *Store) SnapshotState() ([]byte, error) {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := giop.NewEncoder(false)
	e.ULong(uint32(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.String(s.data[k])
	}
	return e.Bytes(), nil
}

// RestoreState implements ftcorba.Stateful.
func (s *Store) RestoreState(b []byte) error {
	d := giop.NewDecoder(b, false)
	n := d.ULong()
	m := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k := d.String()
		m[k] = d.String()
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.data = m
	return nil
}

// Digest is the hex SHA-256 of the snapshot: equal on replicas that hold
// the same state.
func (s *Store) Digest() string {
	snap, _ := s.SnapshotState()
	sum := sha256.Sum256(snap)
	return hex.EncodeToString(sum[:])
}

// PutArgs marshals the arguments of put.
func PutArgs(k, v string) []byte {
	e := giop.NewEncoder(false)
	e.String(k)
	e.String(v)
	return e.Bytes()
}

// GetArgs marshals the argument of get.
func GetArgs(k string) []byte {
	e := giop.NewEncoder(false)
	e.String(k)
	return e.Bytes()
}
