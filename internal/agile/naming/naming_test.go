package naming

import (
	"sync"
	"testing"
)

func TestRegisterLookup(t *testing.T) {
	s := New()
	if err := s.Register(7, 3); err != nil {
		t.Fatal(err)
	}
	h, ok := s.Lookup(7)
	if !ok || h != 3 {
		t.Fatalf("lookup = %v,%v", h, ok)
	}
	if _, ok := s.Lookup(8); ok {
		t.Fatal("unknown component resolved")
	}
	if err := s.Register(7, 4); err == nil {
		t.Fatal("duplicate register succeeded")
	}
}

func TestMoveVersioning(t *testing.T) {
	s := New()
	s.Register(1, 0)
	v, err := s.Move(1, 5, 1)
	if err != nil || v != 2 {
		t.Fatalf("move: v=%d err=%v", v, err)
	}
	// A duplicate (or stale) notification with the old version must fail.
	if _, err := s.Move(1, 9, 1); err == nil {
		t.Fatal("stale move accepted")
	}
	if e, _ := s.Get(1); e.Host != 5 || e.Version != 2 {
		t.Fatalf("entry %+v, want host 5 at version 2", e)
	}
}

func TestMoveUnknown(t *testing.T) {
	s := New()
	if _, err := s.Move(1, 2, 1); err == nil {
		t.Fatal("move of unregistered component accepted")
	}
}

func TestDeregister(t *testing.T) {
	s := New()
	s.Register(1, 0)
	s.Deregister(1)
	s.Deregister(1) // idempotent
	if s.Len() != 0 {
		t.Fatal("deregister failed")
	}
}

func TestConcurrentMoves(t *testing.T) {
	// Many goroutines race to move the same component; versioning must
	// serialize them so exactly the right number of moves win.
	s := New()
	s.Register(1, 0)
	const workers = 32
	var wg sync.WaitGroup
	wins := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(h HostID) {
			defer wg.Done()
			e, _ := s.Get(1)
			if _, err := s.Move(1, h, e.Version); err == nil {
				wins <- struct{}{}
			}
		}(HostID(w))
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n < 1 {
		t.Fatal("no move won")
	}
	e, _ := s.Get(1)
	if e.Version != uint64(n)+1 {
		t.Fatalf("version %d after %d wins", e.Version, n)
	}
}

func TestConcurrentRegisterDistinct(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := s.Register(id, HostID(id%5)); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("len %d", s.Len())
	}
}
