package supervisor_test

import (
	"bytes"
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/sim"
	"anception/internal/supervisor"
)

// TestInjectedReplyFaultsReachTheDecoder: the layer decodes reply frames
// in place and reuses them, so an injected corrupt or truncated reply must
// still be what the host decodes for that call — and must not leak into
// the next call through the reused frame.
func TestInjectedReplyFaultsReachTheDecoder(t *testing.T) {
	d, err := anception.NewDevice(anception.Options{Mode: anception.ModeAnception})
	if err != nil {
		t.Fatal(err)
	}
	inj := supervisor.NewInjector(d.Layer.Transport(), sim.NewRNG(42), d.Clock, d.Trace)
	d.Layer.SetTransport(inj)
	app, err := d.InstallApp(android.AppSpec{Package: "com.frames"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Launch(app)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.Open("f.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("genuine!"), 512)
	if _, err := p.Pwrite(fd, want, 0); err != nil {
		t.Fatal(err)
	}
	genuine := func(when string) {
		t.Helper()
		got, err := p.Pread(fd, len(want), 0)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: pread = %d bytes, %v; want the genuine file", when, len(got), err)
		}
	}
	genuine("before faults")

	inj.InjectNext(supervisor.FaultTruncate)
	if _, err := p.Pread(fd, len(want), 0); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("truncated reply: err = %v, want EINVAL from the decoder", err)
	}
	genuine("after truncation")

	inj.InjectNext(supervisor.FaultCorrupt)
	if got, err := p.Pread(fd, len(want), 0); err == nil && bytes.Equal(got, want) {
		t.Fatal("corrupted reply decoded as the genuine file")
	}
	genuine("after corruption")

	if st := inj.Stats(); st.Injected[supervisor.FaultTruncate] != 1 || st.Injected[supervisor.FaultCorrupt] != 1 {
		t.Fatalf("injector stats %+v", st)
	}
}
