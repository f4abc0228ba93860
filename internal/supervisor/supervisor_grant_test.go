package supervisor_test

import (
	"bytes"
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/supervisor"
)

// TestSupervisedRestartRevokesDeviceGrants is the end-to-end drill: panic
// a grant-enabled container, let the watchdog recover it, and verify the
// sweep ran (no grant left mapped, restart revocations counted) and that
// granted I/O works against the new boot generation.
func TestSupervisedRestartRevokesDeviceGrants(t *testing.T) {
	d, err := anception.NewDevice(anception.Options{
		Mode:           anception.ModeAnception,
		GrantThreshold: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sup := supervisor.New(d, d.Clock, d.Trace, supervisor.Config{})
	app, err := d.InstallApp(android.AppSpec{Package: "com.grant.drill"})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.Launch(app)
	if err != nil {
		t.Fatal(err)
	}

	fd, err := proc.Open("pre.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 8192)
	if _, err := proc.Pwrite(fd, payload, 0); err != nil {
		t.Fatal(err)
	}
	if d.GrantStats().Calls == 0 {
		t.Fatal("setup write never took the grant path")
	}

	// A grant stranded across the panic, as an in-flight call would leave.
	refs := d.Grants().GrantBatch(nil, [][]byte{make([]byte, abi.PageSize)}, true, nil)

	d.InjectGuestPanic("grant drill")
	if err := sup.RunUntilHealthy(50); err != nil {
		t.Fatalf("watchdog never recovered: %v", err)
	}

	if _, err := d.Grants().Resolve(refs[0]); !errors.Is(err, abi.EHOSTDOWN) {
		t.Fatalf("stale grant after supervised restart: %v, want EHOSTDOWN", err)
	}
	st := d.GrantStats().Table
	if st.Active != 0 || st.RevokedByRestart < 1 {
		t.Fatalf("table after supervised restart: %+v", st)
	}

	// Fresh granted traffic flows against the new generation.
	fd2, err := proc.Open("post.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Pwrite(fd2, payload, 0); err != nil {
		t.Fatalf("post-restart granted write: %v", err)
	}
	buf := make([]byte, 8192)
	if _, err := proc.PreadInto(fd2, buf, 0); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("post-restart granted read: %v", err)
	}
}
