package supervisor_test

import (
	"testing"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/supervisor"
)

// TestSupervisedRestartRearmsRing is the end-to-end drill on a ring device:
// panic the container, let the watchdog recover it, and verify the ring was
// re-armed to the new boot generation and serves fresh traffic.
func TestSupervisedRestartRearmsRing(t *testing.T) {
	d, err := anception.NewDevice(anception.Options{
		Mode:      anception.ModeAnception,
		RingDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sup := supervisor.New(d, d.Clock, d.Trace, supervisor.Config{})
	app, err := d.InstallApp(android.AppSpec{Package: "com.ring.drill"})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.Launch(app)
	if err != nil {
		t.Fatal(err)
	}

	fd, err := proc.Open("pre.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Write(fd, []byte("before panic")); err != nil {
		t.Fatal(err)
	}

	rearmsBefore := d.Layer.Stats().Ring.Rearms
	d.InjectGuestPanic("ring drill")
	if err := sup.RunUntilHealthy(50); err != nil {
		t.Fatalf("watchdog never recovered: %v", err)
	}
	if got := d.Layer.Stats().Ring.Rearms; got <= rearmsBefore {
		t.Fatalf("Rearms = %d after supervised restart, want > %d", got, rearmsBefore)
	}

	// Fresh traffic flows through the re-armed ring.
	fd2, err := proc.Open("post.txt", abi.OWrOnly|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Write(fd2, []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if err := proc.Close(fd2); err != nil {
		t.Fatal(err)
	}
	st := d.Layer.Stats().Ring
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("ring accounting %+v after supervised restart", st)
	}
}
