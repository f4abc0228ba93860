package anception

import (
	"errors"
	"testing"

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

// TestRelativeStatAllocs: a stat of a relative path on the Paper profile.
// The join onto the working directory, the component walk and the
// guest's decode of the path allocate nothing once the path repeats; what
// is left is the stat's reply bytes, made by the guest kernel and copied
// out of the frame by the host.
func TestRelativeStatAllocs(t *testing.T) {
	_, p, _, page := pageIOApp(t, Options{})
	op := func() {
		if n, err := p.Stat("frames.dat"); err != nil || n != int64(len(page)) {
			t.Fatalf("stat: n=%d err=%v", n, err)
		}
	}
	allocGate(t, "relative stat", steadyAllocs(op), 2)
}

// TestOpenCloseAllocs: an open and close of a relative path on the Paper
// profile allocates only what the open returns: the host's and the
// proxy's descriptor entries and the guest's open file.
func TestOpenCloseAllocs(t *testing.T) {
	_, p, _, _ := pageIOApp(t, Options{})
	op := func() {
		fd, err := p.Open("frames.dat", abi.ORdWr, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	allocGate(t, "open+close", steadyAllocs(op), 3)
}
