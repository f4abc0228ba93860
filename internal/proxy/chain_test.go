package proxy

import (
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/marshal"
	"anception/internal/sim"
)

func newChainRig(t *testing.T) (*Manager, *kernel.Task) {
	t.Helper()
	guest, clock := newGuestKernel(t)
	m := NewManager(guest, clock, sim.DefaultLatencyModel(), nil)
	host := newTaskFactory(t).hostTask()
	p, err := m.Ensure(host)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

// seedFile writes content into the guest fs through the proxy, so chain
// tests read real data back.
func seedFile(t *testing.T, m *Manager, p *kernel.Task, path string, content []byte) {
	t.Helper()
	open := m.Execute(p, kernel.Args{Nr: abi.SysOpen, Path: path, Flags: abi.OWrOnly | abi.OCreat, Mode: 0o600})
	if !open.Ok() {
		t.Fatalf("seed open: %v", open.Err)
	}
	fd := open.FD
	if fd <= 0 {
		fd = int(open.Ret)
	}
	if res := m.Execute(p, kernel.Args{Nr: abi.SysWrite, FD: fd, Buf: content}); !res.Ok() {
		t.Fatalf("seed write: %v", res.Err)
	}
	if res := m.Execute(p, kernel.Args{Nr: abi.SysClose, FD: fd}); !res.Ok() {
		t.Fatalf("seed close: %v", res.Err)
	}
}

// TestExecuteChainBindings: the canonical open→fstat→read→close chain,
// with every later link taking its descriptor from link 0 and the read
// link riding the cursor.
func TestExecuteChainBindings(t *testing.T) {
	m, p := newChainRig(t)
	content := []byte("linked submissions execute guest-side")
	seedFile(t, m, p, "/data/data/app/blob", content)

	cr := m.ExecuteChainDrained(p, []marshal.ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/blob", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: len(content)}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}, nil)
	if cr.Executed != 4 {
		t.Fatalf("executed %d links, want 4", cr.Executed)
	}
	for i, res := range cr.Results {
		if !res.Ok() {
			t.Fatalf("link %d failed: %v", i, res.Err)
		}
	}
	if got := cr.Results[2].Data; string(got) != string(content) {
		t.Fatalf("chained read returned %q, want %q", got, content)
	}
	if cr.Results[1].Ret != int64(len(content)) {
		t.Fatalf("chained fstat size %d, want %d", cr.Results[1].Ret, len(content))
	}
}

// TestExecuteChainCursor: consecutive cursor reads walk the file without
// any host-visible offset bookkeeping between links.
func TestExecuteChainCursor(t *testing.T) {
	m, p := newChainRig(t)
	seedFile(t, m, p, "/data/data/app/cursor", []byte("0123456789abcdef"))

	cr := m.ExecuteChainDrained(p, []marshal.ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/cursor", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 6}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 6}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 6}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}, nil)
	if cr.Executed != 5 {
		t.Fatalf("executed %d links, want 5", cr.Executed)
	}
	got := string(cr.Results[1].Data) + string(cr.Results[2].Data) + string(cr.Results[3].Data)
	if got != "0123456789abcdef" {
		t.Fatalf("cursor reads produced %q", got)
	}
	if cr.Results[3].Ret != 4 {
		t.Fatalf("final slice read %d bytes, want the 4-byte tail", cr.Results[3].Ret)
	}
}

// TestExecuteChainShortCircuit: a failed link stops the chain and stamps
// its errno on every link that never ran.
func TestExecuteChainShortCircuit(t *testing.T) {
	m, p := newChainRig(t)
	cr := m.ExecuteChainDrained(p, []marshal.ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/missing", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}, nil)
	if cr.Executed != 1 {
		t.Fatalf("executed %d links, want 1 (the failing open)", cr.Executed)
	}
	for i := 0; i < 3; i++ {
		var errno abi.Errno
		if !errors.As(cr.Results[i].Err, &errno) || errno != abi.ENOENT {
			t.Fatalf("link %d: err %v, want ENOENT", i, cr.Results[i].Err)
		}
	}
}

// TestExecuteChainGuestDeathMidChain: a CVM panic between links fails the
// remaining links EHOSTDOWN while the executed prefix keeps its results.
func TestExecuteChainGuestDeathMidChain(t *testing.T) {
	m, p := newChainRig(t)
	seedFile(t, m, p, "/data/data/app/doomed", []byte("half"))
	m.SetChainStep(func(next int) {
		if next == 2 {
			m.guest.Panic("drill: killed between links 1 and 2")
		}
	})
	defer m.SetChainStep(nil)

	cr := m.ExecuteChainDrained(p, []marshal.ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/doomed", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}, nil)
	if cr.Executed != 2 {
		t.Fatalf("executed %d links, want 2", cr.Executed)
	}
	for i := 0; i < 2; i++ {
		if !cr.Results[i].Ok() {
			t.Fatalf("pre-kill link %d failed: %v", i, cr.Results[i].Err)
		}
	}
	for i := 2; i < 4; i++ {
		var errno abi.Errno
		if !errors.As(cr.Results[i].Err, &errno) || errno != abi.EHOSTDOWN {
			t.Fatalf("post-kill link %d: err %v, want EHOSTDOWN", i, cr.Results[i].Err)
		}
	}
}
