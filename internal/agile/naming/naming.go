// Package naming implements the Agile Object Naming Service of Figure 1:
// a versioned component → host directory that migration updates so that
// callers can always locate a component after it moves. Versioning makes
// updates idempotent and tolerant of reordered notifications — a stale
// migration report can never roll the directory backwards.
package naming

import (
	"fmt"
	"sync"
)

// HostID identifies a host in the cluster.
type HostID int

// Entry is one directory record.
type Entry struct {
	Component uint64
	Host      HostID
	Version   uint64 // bumped on every successful move
}

// Service is a thread-safe naming directory. The zero value is not
// usable; create with New.
type Service struct {
	mu      sync.RWMutex
	entries map[uint64]Entry
}

// New returns an empty naming service.
func New() *Service {
	return &Service{entries: make(map[uint64]Entry)}
}

// Register inserts a component at its birth host with version 1. It
// fails if the component is already registered.
func (s *Service) Register(component uint64, host HostID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[component]; ok {
		return fmt.Errorf("naming: component %d already registered", component)
	}
	s.entries[component] = Entry{Component: component, Host: host, Version: 1}
	return nil
}

// Lookup resolves a component to its current host.
func (s *Service) Lookup(component uint64) (HostID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[component]
	return e.Host, ok
}

// Get returns the full entry.
func (s *Service) Get(component uint64) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[component]
	return e, ok
}

// Move records a migration: the component now lives on host, with the
// given expected version (the version the mover observed). The update is
// applied only if expected matches the current version, preventing a
// delayed duplicate or out-of-order notification from clobbering a newer
// location. It returns the new version, or an error on conflicts.
func (s *Service) Move(component uint64, host HostID, expected uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[component]
	if !ok {
		return 0, fmt.Errorf("naming: component %d not registered", component)
	}
	if e.Version != expected {
		return 0, fmt.Errorf("naming: component %d version conflict: have %d, caller saw %d",
			component, e.Version, expected)
	}
	e.Host = host
	e.Version++
	s.entries[component] = e
	return e.Version, nil
}

// Deregister removes a completed or destroyed component. Unknown
// components are a no-op (completion and migration may race benignly).
func (s *Service) Deregister(component uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, component)
}

// Len returns the number of registered components.
func (s *Service) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}
