package anception

import (
	"errors"
	"fmt"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/vfs"
)

// badFileCall is one file call the guest kernel must refuse; it returns
// the call's error.
type badFileCall struct {
	name string
	call func(p *Proc, fd int, path string) error
}

// checkBadFileCalls runs each call on every profile against a file of
// known contents. Each must fail with want, and the file must still hold
// its bytes afterwards: a refused call changes nothing and the app, its
// kernel and the container keep running.
func checkBadFileCalls(t *testing.T, pkg string, want error, calls []badFileCall) {
	t.Helper()
	payload := pattern(6000, 3) // spans a page boundary and a short tail page
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, pkg)
		const name = "bounds.dat"
		path := "/data/data/" + pkg + "/" + name
		fd := mustOpen(t, p, name, abi.ORdWr|abi.OCreat)
		mustPwrite(t, p, fd, payload, 0)
		var obs []string
		for _, c := range calls {
			err := c.call(p, fd, path)
			if !errors.Is(err, want) {
				t.Errorf("%s: err=%v, want %v", c.name, err, want)
			}
			got := mustPread(t, p, fd, len(payload), 0)
			intact := string(got) == string(payload) && fstatSize(p, fd) == int64(len(payload))
			if !intact {
				t.Errorf("after %s: pread got %d bytes, size %d; want the %d bytes written",
					c.name, len(got), fstatSize(p, fd), len(payload))
			}
			obs = append(obs, fmt.Sprintf("%s: %s intact=%v", c.name, errString(err), intact))
		}
		return obs
	})
}

func retErr(_ int, err error) error { return err }

// TestNegativeFileOffsetsAreEINVAL: a negative offset or length is refused
// with EINVAL on every profile and every path — plain, vectored, granted
// and by path — instead of panicking inside the guest's filesystem, which
// on the Fast profile is the ring's SQ poller shared by every app.
func TestNegativeFileOffsetsAreEINVAL(t *testing.T) {
	bulk := make([]byte, 64<<10) // a granted transfer on the Fast profile
	checkBadFileCalls(t, "com.probe.negoff", abi.EINVAL, []badFileCall{
		{"pwrite", func(p *Proc, fd int, _ string) error { return retErr(p.Pwrite(fd, []byte("bad"), -3)) }},
		{"pread", func(p *Proc, fd int, _ string) error { return retErr(p.PreadInto(fd, make([]byte, 3), -3)) }},
		{"ftruncate", func(p *Proc, fd int, _ string) error { return p.Ftruncate(fd, -1) }},
		{"truncate", func(p *Proc, _ int, path string) error {
			return p.Syscall(kernel.Args{Nr: abi.SysTruncate, Path: path, Off: -1}).Err
		}},
		{"pwritev", func(p *Proc, fd int, _ string) error {
			return retErr(p.Pwritev(fd, [][]byte{[]byte("b"), []byte("ad")}, -3))
		}},
		{"preadv", func(p *Proc, fd int, _ string) error {
			return retErr(p.Preadv(fd, [][]byte{make([]byte, 1), make([]byte, 2)}, -3))
		}},
		{"pwrite-bulk", func(p *Proc, fd int, _ string) error { return retErr(p.Pwrite(fd, bulk, -abi.PageSize)) }},
		{"pread-bulk", func(p *Proc, fd int, _ string) error { return retErr(p.PreadInto(fd, bulk, -abi.PageSize)) }},
	})
}

// TestFileSizeLimitIsEFBIG: a write starting at vfs.MaxFileSize, or a
// truncate past it, fails with EFBIG on every profile, as Linux does past
// s_maxbytes, instead of allocating the size on the host.
func TestFileSizeLimitIsEFBIG(t *testing.T) {
	checkBadFileCalls(t, "com.probe.efbig", abi.EFBIG, []badFileCall{
		{"pwrite", func(p *Proc, fd int, _ string) error { return retErr(p.Pwrite(fd, []byte("big"), vfs.MaxFileSize)) }},
		{"pwritev", func(p *Proc, fd int, _ string) error {
			return retErr(p.Pwritev(fd, [][]byte{[]byte("b"), []byte("ig")}, vfs.MaxFileSize))
		}},
		{"ftruncate", func(p *Proc, fd int, _ string) error { return p.Ftruncate(fd, vfs.MaxFileSize+1) }},
		{"truncate", func(p *Proc, _ int, path string) error {
			return p.Syscall(kernel.Args{Nr: abi.SysTruncate, Path: path, Off: 1 << 62}).Err
		}},
	})
}
