package binder

import (
	"errors"
	"testing"

	"anception/internal/abi"
)

func TestRegisterAndTransact(t *testing.T) {
	d := NewDriver()
	err := d.Register("location", false, func(from abi.Cred, code uint32, data []byte) ([]byte, error) {
		return []byte("fix:42.28,-83.74"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := d.Transact(abi.Cred{UID: abi.UIDAppBase}, Transaction{Service: "location", Code: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "fix:42.28,-83.74" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	d := NewDriver()
	h := func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }
	if err := d.Register("svc", false, h); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("svc", false, h); !errors.Is(err, abi.EEXIST) {
		t.Fatalf("dup register: %v, want EEXIST", err)
	}
}

func TestTransactOversizedPayload(t *testing.T) {
	d := NewDriver()
	if err := d.Register("svc", false, func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	big := Transaction{Service: "svc", Payload: make([]byte, MaxTransaction+1)}
	if _, err := d.Transact(abi.Cred{}, big); !errors.Is(err, abi.E2BIG) {
		t.Fatalf("oversized txn: %v, want E2BIG", err)
	}
}

func TestTransactUnknownService(t *testing.T) {
	d := NewDriver()
	if _, err := d.Transact(abi.Cred{}, Transaction{Service: "ghost"}); !errors.Is(err, abi.ENOENT) {
		t.Fatalf("err = %v, want ENOENT", err)
	}
}

func TestUIClassification(t *testing.T) {
	d := NewDriver()
	h := func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }
	if err := d.Register("window", true, h); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("location", false, h); err != nil {
		t.Fatal(err)
	}

	// The redirection logic classifies a transaction by its service.
	if svc := d.Lookup("window"); svc == nil || !svc.UI {
		t.Fatal("window transaction must classify as UI")
	}
	if svc := d.Lookup("location"); svc == nil || svc.UI {
		t.Fatal("location transaction must not classify as UI")
	}
	if d.Lookup("nosuch") != nil {
		t.Fatal("unknown service must not classify as UI")
	}
}

func TestStatsCountUITransactions(t *testing.T) {
	d := NewDriver()
	h := func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }
	if err := d.Register("window", true, h); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("vold", false, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Transact(abi.Cred{}, Transaction{Service: "window"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Transact(abi.Cred{}, Transaction{Service: "vold"}); err != nil {
		t.Fatal(err)
	}
	total, ui := d.Stats()
	if total != 4 || ui != 3 {
		t.Fatalf("stats = (%d, %d), want (4, 3)", total, ui)
	}
}

func TestHandlerReceivesCallerCred(t *testing.T) {
	d := NewDriver()
	var got abi.Cred
	err := d.Register("svc", false, func(from abi.Cred, code uint32, data []byte) ([]byte, error) {
		got = from
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	caller := abi.Cred{UID: 10007, GID: 10007, PID: 99}
	if _, err := d.Transact(caller, Transaction{Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	if got != caller {
		t.Fatalf("handler saw %+v, want %+v", got, caller)
	}
}

func TestServicesList(t *testing.T) {
	d := NewDriver()
	h := func(abi.Cred, uint32, []byte) ([]byte, error) { return nil, nil }
	for _, n := range []string{"a", "b"} {
		if err := d.Register(n, false, h); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Services(); len(got) != 2 {
		t.Fatalf("Services() = %v", got)
	}
}
