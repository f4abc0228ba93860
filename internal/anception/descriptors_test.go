package anception

import (
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// TestDup2ClosesReplacedGuestFD: a dup2 onto an open remote descriptor
// closes what it replaced in the proxy too, so the proxy holds one guest
// descriptor per host one, and the target reads the source's file. On
// Paper and Fast (where the cache holds b's pages until the dup2).
func TestDup2ClosesReplacedGuestFD(t *testing.T) {
	for _, prof := range chainProfiles {
		t.Run(prof.name, func(t *testing.T) {
			d, p := admitApp(t, prof.opts)
			seedGuestFile(t, p, "a.dat", []byte("bytes of a"))
			seedGuestFile(t, p, "b.dat", []byte("bytes of b"))
			a := mustOpen(t, p, "a.dat", abi.ORdOnly)
			b := mustOpen(t, p, "b.dat", abi.ORdOnly)
			if got, err := p.Pread(b, 16, 0); err != nil || string(got) != "bytes of b" {
				t.Fatalf("read b before dup2: %q %v", got, err)
			}
			if res := p.Syscall(kernel.Args{Nr: abi.SysDup2, FD: a, FD2: b}); !res.Ok() || res.FD != b {
				t.Fatalf("dup2: %+v", res)
			}
			if n := len(d.Proxies.ProxyFor(p.Task.PID).FDs()); n != 2 {
				t.Errorf("proxy holds %d guest descriptors for 2 host ones", n)
			}
			if got, err := p.Pread(b, 16, 0); err != nil || string(got) != "bytes of a" {
				t.Errorf("read b after dup2 a onto b: %q %v", got, err)
			}
			if res := p.Syscall(kernel.Args{Nr: abi.SysDup2, FD: b, FD2: b}); !res.Ok() || res.FD != b {
				t.Errorf("dup2 onto itself: %+v", res)
			}
			if n := len(d.Proxies.ProxyFor(p.Task.PID).FDs()); n != 2 {
				t.Errorf("after dup2 onto itself the proxy holds %d guest descriptors", n)
			}
		})
	}
}
