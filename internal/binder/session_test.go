package binder

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"anception/internal/abi"
)

func TestOpenSessionAndTransact(t *testing.T) {
	d := NewDriver()
	err := d.Register("location", false, func(from abi.Cred, code uint32, data []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("code=%d len=%d", code, len(data))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := d.OpenSession("location")
	if err != nil {
		t.Fatal(err)
	}
	if d.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d, want 1", d.SessionCount())
	}
	reply, err := d.TransactSession(abi.Cred{UID: abi.UIDAppBase}, sid, 3, []byte("xy"), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "code=3 len=2" {
		t.Fatalf("reply = %q", reply)
	}
	total, _ := d.Stats()
	if total != 1 {
		t.Fatalf("session transactions must count: total = %d", total)
	}
}

func TestOpenSessionUnknownService(t *testing.T) {
	d := NewDriver()
	if _, err := d.OpenSession("ghost"); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("err = %v, want ENOENT", err)
	}
}

func TestTransactSessionStaleHandle(t *testing.T) {
	d := NewDriver()
	if err := d.Register("svc", false, func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	sid, err := d.OpenSession("svc")
	if err != nil {
		t.Fatal(err)
	}
	d.CloseSession(sid)
	if d.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after close", d.SessionCount())
	}
	if _, err := d.TransactSession(abi.Cred{}, sid, 1, nil, false); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("closed session: %v, want ENOENT", err)
	}
	// A handle that was never issued is equally dead.
	if _, err := d.TransactSession(abi.Cred{}, 999, 1, nil, false); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("never-opened session: %v, want ENOENT", err)
	}
	// Closing an unknown id is a no-op, not a panic.
	d.CloseSession(12345)
}

func TestTransactSessionOversized(t *testing.T) {
	d := NewDriver()
	if err := d.Register("svc", false, func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	sid, err := d.OpenSession("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransactSession(abi.Cred{}, sid, 1, make([]byte, MaxTransaction+1), false); !errors.Is(err, abi.E2BIG) {
		t.Fatalf("oversized session txn: %v, want E2BIG", err)
	}
}

func TestTransactDecodedOversized(t *testing.T) {
	d := NewDriver()
	if err := d.Register("svc", false, func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	// The payload alone fits; with the service name it does not.
	txn := Transaction{Service: "svc", Payload: make([]byte, MaxTransaction-1)}
	if _, err := d.Transact(abi.Cred{}, txn); !errors.Is(err, abi.E2BIG) {
		t.Fatalf("oversized decoded txn: %v, want E2BIG", err)
	}
}

func TestOnewayDiscardsReplyAndError(t *testing.T) {
	d := NewDriver()
	calls := 0
	err := d.Register("svc", false, func(abi.Cred, uint32, []byte) ([]byte, error) {
		calls++
		return []byte("ignored"), errors.New("ignored too")
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := d.Transact(abi.Cred{}, Transaction{Service: "svc", Oneway: true})
	if err != nil || reply != nil {
		t.Fatalf("oneway returned (%q, %v), want (nil, nil)", reply, err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	if d.OnewayCount() != 1 {
		t.Fatalf("OnewayCount = %d, want 1", d.OnewayCount())
	}
}

// TestDriverChurnRace hammers one driver from concurrent registrars,
// transactors, session users, and listers. The assertion is the race
// detector's: run under -race in CI.
func TestDriverChurnRace(t *testing.T) {
	d := NewDriver()
	h := func(abi.Cred, uint32, []byte) ([]byte, error) { return []byte("ok"), nil }
	if err := d.Register("steady", false, h); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // registrars: new names, plus EEXIST collisions
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = d.Register(fmt.Sprintf("svc-%d-%d", w, i), false, h)
				_ = d.Register("steady", false, h)
			}
		}(w)
		wg.Add(1)
		go func(w int) { // transactors: two-way and oneway dispatch
			defer wg.Done()
			cred := abi.Cred{UID: abi.UIDAppBase + w}
			for i := 0; i < iters; i++ {
				txn := Transaction{Service: "steady", Code: 1, Oneway: i%2 == 0}
				if _, err := d.Transact(cred, txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() { // session churn: open, transact, close
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sid, err := d.OpenSession("steady")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.TransactSession(abi.Cred{}, sid, 1, nil, false); err != nil {
					t.Error(err)
					return
				}
				d.CloseSession(sid)
			}
		}()
		wg.Add(1)
		go func() { // observers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = d.Services()
				_, _ = d.Stats()
				_ = d.SessionCount()
				_ = d.Lookup("steady")
				_ = d.OnewayCount()
			}
		}()
	}
	wg.Wait()

	if d.SessionCount() != 0 {
		t.Fatalf("session leak: %d live handles after churn", d.SessionCount())
	}
	total, _ := d.Stats()
	if want := workers * iters * 2; total != want {
		t.Fatalf("transactions = %d, want %d", total, want)
	}
}
