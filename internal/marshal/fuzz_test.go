package marshal

import (
	"bytes"
	"testing"
	"unsafe"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
)

// Fuzz targets: the decoders face bytes a compromised container chose.
// `go test` exercises the seed corpus; `go test -fuzz=FuzzDecodeArgs`
// explores further. Beyond never panicking, every decoder must leave its
// input untouched and hand out byte fields only as capacity-clipped views
// that lie inside it.

// decodeArgs is DecodeArgs into a fresh Args.
func decodeArgs(b []byte) (*kernel.Args, error) {
	a := new(kernel.Args)
	if err := DecodeArgs(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// decodeSockOp is DecodeSockOp into a fresh Args.
func decodeSockOp(b []byte) (*kernel.Args, error) {
	a := new(kernel.Args)
	if err := DecodeSockOp(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// overlaps reports whether view and buf share any memory.
func overlaps(view, buf []byte) bool {
	if cap(view) == 0 || len(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return p < lo+uintptr(len(buf)) && lo < p+uintptr(cap(view))
}

// within reports whether view — including its capacity, so appending to
// it cannot reach past the field — lies inside buf.
func within(view, buf []byte) bool {
	if cap(view) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return p >= lo && p+uintptr(cap(view)) <= lo+uintptr(len(buf))
}

// checkArgsViews fails unless a's byte fields are views inside frame.
// Read-style iov spans are fresh scratch, so a segment need only lie
// inside the frame when it points into it at all.
func checkArgsViews(t *testing.T, a *kernel.Args, frame []byte) {
	t.Helper()
	if !within(a.Buf, frame) {
		t.Fatal("Buf is not a clipped view into the frame")
	}
	for i, seg := range a.Iov {
		if overlaps(seg, frame) && !within(seg, frame) {
			t.Fatalf("Iov[%d] straddles the frame", i)
		}
	}
}

// checkResultViews fails unless every Data field is a view inside frame.
func checkResultViews(t *testing.T, results []kernel.Result, frame []byte) {
	t.Helper()
	for i, res := range results {
		if !within(res.Data, frame) {
			t.Fatalf("result %d Data is not a clipped view into the frame", i)
		}
	}
}

// unchanged fails if decoding wrote to its input.
func unchanged(t *testing.T, before, after []byte) {
	t.Helper()
	if !bytes.Equal(before, after) {
		t.Fatal("decoder wrote to its input")
	}
}

func FuzzDecodeArgs(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendArgs(nil, &kernel.Args{Nr: abi.SysWrite, FD: 3, Buf: []byte("data"), Path: "/x"}))
	f.Add(AppendArgs(nil, &kernel.Args{Nr: abi.SysWritev, FD: 3, Iov: [][]byte{[]byte("ab"), []byte("cd")}}))
	f.Add(AppendArgs(nil, &kernel.Args{Nr: abi.SysPreadv, FD: 3, Iov: [][]byte{make([]byte, 8)}}))
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		var a kernel.Args
		err := DecodeArgs(data, &a)
		unchanged(t, before, data)
		if err == nil {
			checkArgsViews(t, &a, data)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResult(nil, kernel.Result{Ret: 7, Data: []byte("ok"), FD: 4}))
	f.Add(AppendResult(nil, kernel.Result{Ret: -1, Err: abi.EACCES}))
	f.Add(AppendResultBatch(nil, []kernel.Result{{Ret: 1, Data: []byte("a")}, {Ret: 2, Data: []byte("bc")}}))
	f.Add([]byte{0xEE, 0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		res, err := DecodeResult(data)
		unchanged(t, before, data)
		if err == nil {
			checkResultViews(t, []kernel.Result{res}, data)
		}
		batch, err := DecodeResultBatch(data, nil)
		unchanged(t, before, data)
		if err == nil {
			checkResultViews(t, batch, data)
		}
	})
}

func FuzzDecodeSockOp(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSockOp(nil, &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("GET /")}))
	f.Add(AppendSockOp(nil, &kernel.Args{Nr: abi.SysConnect, FD: 3, Addr: "cvm:80"}))
	f.Add(AppendSockOp(nil, &kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 4096}))
	f.Add(AppendSockOp(nil, &kernel.Args{Nr: abi.SysAccept4, FD: 3, Size: 16}))
	f.Add(AppendSockOp(nil, &kernel.Args{Nr: abi.SysEpollWait, FD: 5, Size: 8}))
	f.Add([]byte{0xA9})
	f.Add([]byte{0xA9, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		var a kernel.Args
		err := DecodeSockOp(data, &a)
		unchanged(t, before, data)
		if err == nil {
			checkArgsViews(t, &a, data)
		}
	})
}

// FuzzDecodeBinderTxn: an app's /dev/binder ioctl argument. Whatever
// decodes re-encodes to the same bytes, so the oneway flag survives a
// round trip, and the payload is a view inside the argument.
func FuzzDecodeBinderTxn(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBinderTxn(nil, binder.Transaction{Service: "window", Code: 2, Payload: []byte("p")}))
	f.Add([]byte{0xFF, 0xFF, 'x'})
	// The extended encodings: a oneway transaction, a session call (must
	// not decode as a flat transaction), and mangled magic prefixes.
	f.Add(AppendBinderTxn(nil, binder.Transaction{Service: "media", Code: 9, Payload: []byte("q"), Oneway: true}))
	f.Add(AppendBinderSession(nil, BinderSession{Session: 7, Code: 3, Payload: []byte("s")}))
	f.Add([]byte{0xFF, 0xFE, 'O', '1'})
	f.Add([]byte{0xFF, 0xFE, 'S', '1', 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		var d Decoder
		txn, err := d.BinderTxn(data)
		unchanged(t, before, data)
		if err != nil {
			return
		}
		if !within(txn.Payload, data) {
			t.Fatal("payload is not a view inside the argument")
		}
		if again := AppendBinderTxn(nil, txn); !bytes.Equal(again, data) {
			t.Fatalf("re-encode changed the argument: %x -> %x", data, again)
		}
		out, err := d.BinderTxn(AppendBinderTxn(nil, txn))
		if err != nil || out.Oneway != txn.Oneway {
			t.Fatalf("re-decode: oneway %v -> %v, %v", txn.Oneway, out.Oneway, err)
		}
	})
}

// FuzzDecodeBinderSession: a session call a compromised host side (or a
// corrupted slot) hands the guest. Whatever decodes round-trips its
// fields, oneway flag included, and the payload is a view inside it.
func FuzzDecodeBinderSession(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBinderSession(nil, BinderSession{Session: 1, Code: 3, Payload: []byte("p")}))
	f.Add(AppendBinderSession(nil, BinderSession{Session: 0xFFFFFFFF, Oneway: true}))
	f.Add([]byte{0xA8, 4, 0, 0, 0, 0xFF, 0xFE, 'S', '1'})
	f.Add(AppendBinderTxn(nil, binder.Transaction{Service: "window", Code: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		var d Decoder
		s, err := d.BinderSession(data)
		unchanged(t, before, data)
		if err != nil {
			return
		}
		if !within(s.Payload, data) {
			t.Fatal("payload is not a view inside the frame")
		}
		out, err := d.BinderSession(AppendBinderSession(nil, s))
		if err != nil || out.Session != s.Session || out.Code != s.Code || out.Oneway != s.Oneway || !bytes.Equal(out.Payload, s.Payload) {
			t.Fatalf("round trip changed frame: %+v -> %+v, %v", s, out, err)
		}
	})
}

func FuzzDecodeChain(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendChain(nil, []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}))
	f.Add(AppendChain(nil, []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("ping")}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 128}, FDFrom: -1},
	}))
	f.Add([]byte{0xAA})
	f.Add([]byte{0xAA, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xAA, 2, 0, 0, 0, chainFlagFDFrom, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		links, err := DecodeChain(data)
		unchanged(t, before, data)
		if err == nil && len(links) == 0 {
			t.Fatal("empty chain without error")
		}
		for i, ln := range links {
			if err == nil && (ln.Args == nil || ln.FDFrom >= i) {
				t.Fatalf("link %d decoded inconsistently (fdFrom=%d)", i, ln.FDFrom)
			}
			checkArgsViews(t, ln.Args, data)
		}
	})
}

func FuzzDecodeChainResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendChainResult(nil, ChainResult{Executed: 2, Results: []kernel.Result{
		{Ret: 3, FD: 3},
		{Ret: 4, Data: []byte("data")},
		{Ret: -1, Err: abi.EHOSTDOWN},
	}}))
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		cr, err := DecodeChainResult(data)
		unchanged(t, before, data)
		if err == nil && (cr.Executed < 0 || cr.Executed > len(cr.Results)) {
			t.Fatal("inconsistent executed count without error")
		}
		if err == nil {
			checkResultViews(t, cr.Results, data)
		}
	})
}

// FuzzArgsRoundTrip: anything that encodes must decode to itself, with
// the payload decoded as a view into the frame and the frame untouched.
func FuzzArgsRoundTrip(f *testing.F) {
	f.Add("/data/x", 3, []byte("buf"), int64(12), "tag")
	f.Fuzz(func(t *testing.T, path string, fd int, buf []byte, off int64, tag string) {
		in := &kernel.Args{Nr: abi.SysPwrite64, Path: path, FD: fd, Buf: buf, Off: off, Tag: tag}
		frame := AppendArgs(nil, in)
		before := bytes.Clone(frame)
		var out kernel.Args
		if err := DecodeArgs(frame, &out); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		unchanged(t, before, frame)
		if out.Path != path || out.FD != fd || out.Off != off || out.Tag != tag || !bytes.Equal(out.Buf, buf) {
			t.Fatal("round trip mismatch")
		}
		checkArgsViews(t, &out, frame)
		// A Decoder that kept another path, or the same one, and saw a
		// pathless call since decodes the frame the same way.
		var d Decoder
		for _, prior := range []*kernel.Args{{Nr: abi.SysStat, Path: path + "x"}, {Nr: abi.SysStat, Path: path}, {Nr: abi.SysPread64, FD: 1}} {
			if err := d.Args(AppendArgs(nil, prior), &out); err != nil {
				t.Fatal(err)
			}
			if err := d.Args(frame, &out); err != nil {
				t.Fatalf("own encoding rejected by a decoder: %v", err)
			}
			if out.Path != path || out.FD != fd || out.Off != off || out.Tag != tag || !bytes.Equal(out.Buf, buf) {
				t.Fatal("round trip through a decoder mismatch")
			}
		}
	})
}
