package marshal

import (
	"fmt"
	"testing"
	"unsafe"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
)

// TestDecoderKeptStringsAllocs: a Decoder returns the path it kept when the
// same path arrives again, so a repeated path call decodes without
// allocating. A pathless call in between decodes Path == "" and keeps the
// kept string; a different path of the same length is a new string, and
// no decoded string is a view into its frame. Paths, addresses and
// binder service names share one kept set: two paths, 4 addresses and a
// service in turn all decode without a copy.
func TestDecoderKeptStringsAllocs(t *testing.T) {
	var d Decoder
	var a kernel.Args
	decode := func(frame []byte) kernel.Args {
		t.Helper()
		if err := d.Args(frame, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	statA := AppendArgs(nil, &kernel.Args{Nr: abi.SysStat, Path: "/data/data/app/a.dat"})
	statB := AppendArgs(nil, &kernel.Args{Nr: abi.SysStat, Path: "/data/data/app/b.dat"})
	pwrite := AppendArgs(nil, &kernel.Args{Nr: abi.SysPwrite64, FD: 3, Buf: []byte("page"), Off: 4096})

	first := decode(statA).Path
	if got := decode(pwrite); got.Path != "" || got.Path2 != "" || got.Addr != "" {
		t.Fatalf("a pathless call decoded Path=%q Path2=%q Addr=%q", got.Path, got.Path2, got.Addr)
	}
	if again := decode(statA).Path; unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("a repeated path after a pathless call was copied again")
	}
	other := decode(statB).Path
	if other != "/data/data/app/b.dat" || first != "/data/data/app/a.dat" {
		t.Fatalf("same-length paths aliased: first=%q other=%q", first, other)
	}
	// Rewriting a frame after its decode changes no decoded string.
	scribbled := AppendArgs(nil, &kernel.Args{Nr: abi.SysStat, Path: "/data/data/app/c.dat"})
	kept := decode(scribbled).Path
	for i := range scribbled {
		scribbled[i] = 'X'
	}
	if kept != "/data/data/app/c.dat" {
		t.Fatalf("decoded path %q is a view into its frame", kept)
	}

	if n := testing.AllocsPerRun(100, func() { decode(statB) }); n != 0 {
		t.Errorf("repeated path decode: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { decode(pwrite); decode(statB) }); n != 0 {
		t.Errorf("path decode after a pathless one: %v allocs, want 0", n)
	}
	rename := AppendArgs(nil, &kernel.Args{Nr: abi.SysRename, Path: "/data/x.tmp", Path2: "/data/x"})
	decode(rename)
	if n := testing.AllocsPerRun(100, func() { decode(rename) }); n != 0 {
		t.Errorf("repeated two-path decode: %v allocs, want 0", n)
	}

	connect := AppendSockOp(nil, &kernel.Args{Nr: abi.SysConnect, FD: 3, Addr: "echo.bench:7"})
	send := AppendSockOp(nil, &kernel.Args{Nr: abi.SysSend, FD: 3, Buf: []byte("ping")})
	sockOp := func(frame []byte) kernel.Args {
		t.Helper()
		if err := d.SockOp(frame, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	addr := sockOp(connect).Addr
	if got := sockOp(send); got.Addr != "" {
		t.Fatalf("an addressless socket op decoded Addr=%q", got.Addr)
	}
	if again := sockOp(connect).Addr; unsafe.StringData(again) != unsafe.StringData(addr) {
		t.Fatal("a repeated address was copied again")
	}
	if n := testing.AllocsPerRun(100, func() { sockOp(send); sockOp(connect) }); n != 0 {
		t.Errorf("repeated address decode: %v allocs, want 0", n)
	}

	// A client that connects to 4 lanes in turn, by sockop and by args
	// frame, decodes every address without a copy once it has seen them.
	lanes, addrs := make([][]byte, 4), make([]string, 4)
	for i := range lanes {
		addrs[i] = fmt.Sprintf("echo.bench:%d", 7+i)
		lane := &kernel.Args{Nr: abi.SysConnect, FD: 3, Addr: addrs[i]}
		if i%2 == 0 {
			lanes[i] = AppendSockOp(nil, lane)
		} else {
			lanes[i] = AppendArgs(nil, lane)
		}
	}
	cycle := func() {
		for i, frame := range lanes {
			if i%2 == 0 {
				sockOp(frame)
			} else {
				decode(frame)
			}
			if a.Addr != addrs[i] {
				t.Fatalf("lane %d decoded Addr=%q, want %q", i, a.Addr, addrs[i])
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("4 addresses in turn: %v allocs, want 0", n)
	}

	// One pooled frame carrying two apps' files in turn, the 4 lanes and
	// a binder transaction: every string is kept at once.
	txn := AppendBinderTxn(nil, binder.Transaction{Service: "location", Code: 3})
	mixed := func() {
		decode(statA)
		cycle()
		decode(statB)
		if got, err := d.BinderTxn(txn); err != nil || got.Service != "location" {
			t.Fatalf("binder decode: service %q, %v", got.Service, err)
		}
	}
	mixed()
	if n := testing.AllocsPerRun(100, mixed); n != 0 {
		t.Errorf("2 paths, 4 addresses and a service in turn: %v allocs, want 0", n)
	}
}

// TestBinderCodecAllocs: a binder transaction encodes into a roomy frame,
// and decodes with a repeated service name, without allocating; so does
// every binder-call frame the host ships to the container.
func TestBinderCodecAllocs(t *testing.T) {
	var d Decoder
	txn := binder.Transaction{Service: "location", Code: 3, Payload: make([]byte, 128)}
	frame := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		frame = AppendBinderTxn(frame[:0], txn)
		if _, err := d.BinderTxn(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("binder transaction encode+decode: %v allocs, want 0", n)
	}
	flat := AppendBinderTxn(nil, txn)
	sess := BinderSession{Session: 1, Code: 3, Payload: txn.Payload}
	for name, enc := range map[string]func([]byte) []byte{
		"flat":    func(dst []byte) []byte { return AppendBinderFlat(dst, flat) },
		"session": func(dst []byte) []byte { return AppendBinderSession(dst, sess) },
		"open":    func(dst []byte) []byte { return AppendBinderOpen(dst, txn.Service) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			frame = enc(frame[:0])
			if _, err := d.BinderCall(frame); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("binder %s call encode+decode: %v allocs, want 0", name, n)
		}
	}
}
