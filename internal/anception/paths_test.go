package anception

import (
	"errors"
	"testing"
	"time"

	"anception/internal/abi"
)

// Path-named calls resolve their path once, against the task's working
// directory (kernel.Task.AbsPath), on the host and in the container alike.

// TestEmptyPathIsENOENT: an empty path names no file. stat, open, access
// and unlink of "" fail with ENOENT as on Linux, on every profile, rather
// than acting on the app's working directory.
func TestEmptyPathIsENOENT(t *testing.T) {
	acrossProfiles(t, func(t *testing.T, d *Device) []string {
		p := installAndLaunch(t, d, "com.probe.emptypath")
		_, statErr := p.Stat("")
		fd, openErr := p.Open("", abi.ORdOnly, 0)
		calls := []struct {
			name string
			err  error
		}{
			{"stat", statErr},
			{"open", openErr},
			{"access", p.Access("", 0)},
			{"unlink", p.Unlink("")},
		}
		var obs []string
		for _, c := range calls {
			if !errors.Is(c.err, abi.ENOENT) {
				t.Errorf("%s(\"\"): err = %v, want ENOENT", c.name, c.err)
			}
			obs = append(obs, c.name+": "+errString(c.err))
		}
		if openErr == nil {
			t.Errorf("open(\"\") returned fd %d", fd)
		}
		return obs
	})
}

// TestRelativeStatAllocs: a stat of a relative path on the Paper and Fast
// profiles. The join onto the working directory, the component walk and
// the guest's decode of the path allocate nothing once the path repeats,
// and the reply's kind tag is a view of vfs's letter table in the guest
// kernel, on the host and in Fast's attribute cache: nothing is left.
func TestRelativeStatAllocs(t *testing.T) {
	for _, prof := range allocProfiles {
		_, p, _, page := pageIOApp(t, prof.opts)
		op := func() {
			if n, err := p.Stat("frames.dat"); err != nil || n != int64(len(page)) {
				t.Fatalf("stat: n=%d err=%v", n, err)
			}
		}
		allocGate(t, prof.name+" relative stat", steadyAllocs(op), 0)
	}
}

// TestOpenCloseAllocs: an open and close of a relative path. Both kernels
// hold descriptor entries by value, so on Paper what is left is the
// guest's open file description (vfs.File), shared by dup and fork and
// so a pointer; on Fast the redirection cache's per-descriptor state
// (fdCache) is the second.
func TestOpenCloseAllocs(t *testing.T) {
	for _, prof := range allocProfiles {
		_, p, _, _ := pageIOApp(t, prof.opts)
		op := func() {
			fd, err := p.Open("frames.dat", abi.ORdWr, 0)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := p.Close(fd); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		allocGate(t, prof.name+" open+close", steadyAllocs(op), prof.openClose)
	}
}

// allocProfiles are the path-call gates' profiles, with the open+close
// ceiling of each.
var allocProfiles = []struct {
	name      string
	opts      Options
	openClose float64
}{
	{"paper", Options{}, 1},
	{"fast", Options{AutoTune: true, CallDeadline: time.Hour}, 2},
}
