package anception

import (
	"bytes"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
)

// Aliasing regressions for the copy-once data plane: replies are decoded
// as views into reused frames, so every result the host keeps past its
// call must have been copied out. Each test keeps such a result, pushes a
// hundred later calls with different bytes through the same frames, and
// checks the kept bytes did not change. Run under -race they also catch a
// frame written by one call while another still reads it.

// churnFrames pushes n redirected 4 KiB preads of 0xEE bytes through the
// shared frame list on a separate ring device.
func churnFrames(t *testing.T, n int) {
	t.Helper()
	_, p, fd, _ := pageIOApp(t, Options{RingDepth: 8, RingWorkers: 2})
	noise := bytes.Repeat([]byte{0xEE}, int(cachePageSize))
	mustPwrite(t, p, fd, noise, 0)
	for i := 0; i < n; i++ {
		if got := mustPread(t, p, fd, len(noise), 0); !bytes.Equal(got, noise) {
			t.Fatalf("churn read %d corrupted", i)
		}
	}
}

// TestAliasBinderCachedReply: a reply served over the ring and stored in
// the binder reply cache survives later traffic, both in the app's hands
// and in the cache — and an app scribbling on a served reply cannot
// poison the cache.
func TestAliasBinderCachedReply(t *testing.T) {
	d, p, fd := bootBinderDevice(t, Options{BinderReplyCache: true, BinderSessions: true, RingDepth: 8, RingWorkers: 2})
	payload := []byte("where am i")
	first, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	for i := 0; i < 100; i++ {
		if _, err := p.BinderCall(fd, "package", android.CodeQuery, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	churnFrames(t, 100)
	if !bytes.Equal(first, want) {
		t.Fatalf("reply the app kept changed under later traffic: %q, want %q", first, want)
	}
	hit, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, want) {
		t.Fatalf("cached reply %q, want %q", hit, want)
	}
	hit[0] ^= 0xFF
	again, err := p.BinderCall(fd, "location", android.CodeGetLocation, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("app write to a served reply reached the cache: %q", again)
	}
	if st := d.BinderStats(); st.ReplyHits < 2 {
		t.Fatalf("reply cache not exercised: %+v", st)
	}
}

// TestAliasFusionSpeculatedRecv: a recv speculatively fused with its send
// buffers the reply at send time; it is served intact after a hundred
// later calls reuse the call frames.
func TestAliasFusionSpeculatedRecv(t *testing.T) {
	d, p, sock := echoSocket(t)
	echoRounds(t, p, sock, fuseConfidence+1)
	fd := mustOpen(t, p, "other.dat", abi.ORdWr|abi.OCreat)
	mustPwrite(t, p, fd, bytes.Repeat([]byte{0xEE}, 64), 0)

	before := d.Layer.Stats().Fusion
	msg := []byte("spec-msg")
	if _, err := p.Send(sock, msg); err != nil { // fuses send→recv
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if st := p.Syscall(kernel.Args{Nr: abi.SysFstat, FD: fd}); !st.Ok() {
			t.Fatalf("fstat other: %v", st.Err)
		}
	}
	churnFrames(t, 100)
	buf := make([]byte, len(msg))
	if n, err := p.RecvInto(sock, buf); err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("speculated recv served %q, %v; want %q", buf[:n], err, msg)
	}
	if served := d.Layer.Stats().Fusion.SpecServed - before.SpecServed; served != 1 {
		t.Fatalf("speculation served %d calls, want the recv", served)
	}
}

// TestAliasReadlinkGetdentsResults: path-call results returned to the app
// are its own bytes, not views into a reply frame.
func TestAliasReadlinkGetdentsResults(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	p := installAndLaunch(t, d, "com.example.alias")
	for _, dir := range []string{"listed", "noise"} {
		if err := p.Mkdir(dir, 0o700); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"listed/alpha", "listed/beta", "noise/xxxxx", "noise/yyyyy"} {
		fd := mustOpen(t, p, name, abi.ORdWr|abi.OCreat)
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if res := p.Syscall(kernel.Args{Nr: abi.SysSymlink, Path: "/data/target-one", Path2: "link"}); !res.Ok() {
		t.Fatal(res.Err)
	}
	dents, err := p.Getdents("listed")
	if err != nil {
		t.Fatal(err)
	}
	wantDents := bytes.Clone(dents)
	link, err := p.Readlink("link")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := p.Getdents("noise"); err != nil {
			t.Fatal(err)
		}
	}
	churnFrames(t, 100)
	if !bytes.Equal(dents, wantDents) {
		t.Fatalf("getdents result changed under later traffic: %q, want %q", dents, wantDents)
	}
	if again, err := p.Getdents("listed"); err != nil || !bytes.Equal(again, wantDents) {
		t.Fatalf("getdents again = %q, %v", again, err)
	}
	if link != "/data/target-one" {
		t.Fatalf("readlink = %q", link)
	}
}
