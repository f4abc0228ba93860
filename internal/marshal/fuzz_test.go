package marshal

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
)

// FuzzFrame: every decoder faces bytes a compromised container (or a
// corrupted slot) chose, so each input goes through all of them: args,
// sockop, grant call and bare descriptor, chain, binder transaction and
// session, result, result batch and chain result. `go test` runs the
// seed corpus of every frame kind; `go test -fuzz=FuzzFrame` explores
// further. Beyond never panicking or over-allocating, every decoder must
// leave its input untouched and hand out byte fields only as
// capacity-clipped views that lie inside it. The per-kind targets below
// run one kind's seeds through the same checks.

// decodeArgs is Args into a fresh Args.
func decodeArgs(b []byte) (*kernel.Args, error) {
	a := new(kernel.Args)
	if err := new(Decoder).Args(b, a); err != nil {
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

// Seed corpora, one per frame kind.
var (
	argsSeeds = [][]byte{
		{},
		AppendArgs(nil, &kernel.Args{Nr: abi.SysWrite, FD: 3, Buf: []byte("data"), Path: "/x"}),
		AppendArgs(nil, &kernel.Args{Nr: abi.SysWritev, FD: 3, Iov: [][]byte{[]byte("ab"), []byte("cd")}}),
		AppendArgs(nil, &kernel.Args{Nr: abi.SysPreadv, FD: 3, Iov: [][]byte{make([]byte, 8)}}),
		{0xFF, 0x00, 0x01},
		{2, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	resultSeeds = [][]byte{
		{},
		AppendResult(nil, kernel.Result{Ret: 7, Data: []byte("ok"), FD: 4}),
		AppendResult(nil, kernel.Result{Ret: -1, Err: abi.EACCES}),
		AppendResultBatch(nil, []kernel.Result{{Ret: 1, Data: []byte("a")}, {Ret: 2, Data: []byte("bc")}}),
		{0xEE, 0xEE},
	}
	sockOpSeeds = [][]byte{
		{},
		AppendSockOp(nil, &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("GET /")}),
		AppendSockOp(nil, &kernel.Args{Nr: abi.SysConnect, FD: 3, Addr: "cvm:80"}),
		AppendSockOp(nil, &kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 4096}),
		AppendSockOp(nil, &kernel.Args{Nr: abi.SysAccept4, FD: 3, Size: 16}),
		AppendSockOp(nil, &kernel.Args{Nr: abi.SysEpollWait, FD: 5, Size: 8}),
		{0xA9},
		{0xA9, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	// An app's /dev/binder ioctl argument, its extended encodings (a
	// oneway transaction, a session call, which must not decode as a flat
	// transaction) and mangled magic prefixes.
	binderTxnSeeds = [][]byte{
		{},
		AppendBinderTxn(nil, binder.Transaction{Service: "window", Code: 2, Payload: []byte("p")}),
		{0xFF, 0xFF, 'x'},
		AppendBinderTxn(nil, binder.Transaction{Service: "media", Code: 9, Payload: []byte("q"), Oneway: true}),
		AppendBinderSession(nil, BinderSession{Session: 7, Code: 3, Payload: []byte("s")}),
		{0xFF, 0xFE, 'O', '1'},
		{0xFF, 0xFE, 'S', '1', 0, 0},
	}
	// Binder-call frames of every body, a truncated session body, an
	// envelope around a reserved flat prefix, and a bare flat
	// transaction.
	binderSessionSeeds = [][]byte{
		{},
		AppendBinderSession(nil, BinderSession{Session: 1, Code: 3, Payload: []byte("p")}),
		AppendBinderSession(nil, BinderSession{Session: 0xFFFFFFFF, Oneway: true}),
		AppendBinderFlat(nil, AppendBinderTxn(nil, binder.Transaction{Service: "media", Code: 9, Payload: []byte("q"), Oneway: true})),
		AppendBinderOpen(nil, "location"),
		{0xA8, 4, 0, 0, 0, 0xFF, 0xFE, 'S', '1'},
		{0xA8, 6, 0, 0, 0, 0xFF, 0xFE, 'X', '1', 0, 0},
		AppendBinderTxn(nil, binder.Transaction{Service: "window", Code: 2}),
	}
	chainSeeds = [][]byte{
		{},
		AppendChain(nil, []ChainLink{
			{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.ORdOnly}, FDFrom: -1},
			{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
			{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
			{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
		}),
		AppendChain(nil, []ChainLink{
			{Args: &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("ping")}, FDFrom: -1},
			{Args: &kernel.Args{Nr: abi.SysRecv, FD: 4, Size: 128}, FDFrom: -1},
		}),
		{0xAA},
		{0xAA, 0xFF, 0xFF, 0xFF, 0xFF},
		{0xAA, 2, 0, 0, 0, chainFlagFDFrom, 9},
	}
	chainResultSeeds = [][]byte{
		{},
		AppendChainResult(nil, ChainResult{Executed: 2, Results: []kernel.Result{
			{Ret: 3, FD: 3},
			{Ret: 4, Data: []byte("data")},
			{Ret: -1, Err: abi.EHOSTDOWN},
		}}),
		{1, 0, 0, 0, 9, 0, 0, 0},
	}
	sgSeeds = [][]byte{
		{},
		AppendSG(nil, &SGDescriptor{Writable: true, Entries: []SGEntry{{ID: 1, Gen: 1, Off: 0, Len: 4096}}}),
		AppendGrantCall(nil,
			&SGDescriptor{Entries: []SGEntry{{ID: 3, Gen: 2, Len: 512}}},
			&kernel.Args{Nr: abi.SysPwrite64, FD: 3, Size: 512},
		),
		{grantCallMagic},
		{grantCallMagic, 2, 0xFF, 0xFF, 0xFF, 0x7F},
		{0, 2, 0xFF, 0xFF, 0xFF, 0x7F},
	}
)

func FuzzFrame(f *testing.F) {
	fuzzFrames(f, slices.Concat(argsSeeds, resultSeeds, sockOpSeeds, binderTxnSeeds,
		binderSessionSeeds, chainSeeds, chainResultSeeds, sgSeeds))
}

func FuzzDecodeArgs(f *testing.F)          { fuzzFrames(f, argsSeeds) }
func FuzzDecodeResult(f *testing.F)        { fuzzFrames(f, resultSeeds) }
func FuzzDecodeSockOp(f *testing.F)        { fuzzFrames(f, sockOpSeeds) }
func FuzzDecodeBinderTxn(f *testing.F)     { fuzzFrames(f, binderTxnSeeds) }
func FuzzDecodeBinderSession(f *testing.F) { fuzzFrames(f, binderSessionSeeds) }
func FuzzDecodeChain(f *testing.F)         { fuzzFrames(f, chainSeeds) }
func FuzzDecodeChainResult(f *testing.F)   { fuzzFrames(f, chainResultSeeds) }
func FuzzDecodeSG(f *testing.F)            { fuzzFrames(f, sgSeeds) }

// fuzzFrames fuzzes checkFrame from seeds.
func fuzzFrames(f *testing.F, seeds [][]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(checkFrame)
}

// checkFrame runs data through every decoder of one Decoder and checks
// what each one decodes.
func checkFrame(t *testing.T, data []byte) {
	before := bytes.Clone(data)
	var d Decoder
	var a kernel.Args

	if err := d.Args(data, &a); err == nil {
		checkArgsViews(t, &a, data)
	}
	if err := d.SockOp(data, &a); err == nil {
		checkArgsViews(t, &a, data)
	}
	if g, err := d.GrantCall(data, &a); err == nil {
		if g == nil {
			t.Fatal("nil descriptor without error")
		}
		checkArgsViews(t, &a, data)
	}
	var sg SGDescriptor
	if err := decodeSG(data, &sg); err == nil && len(sg.Entries) > sgMaxEntries {
		t.Fatalf("%d entries decoded past the cap", len(sg.Entries))
	}

	links, err := d.Chain(data)
	if err == nil && len(links) == 0 {
		t.Fatal("empty chain without error")
	}
	for i, ln := range links {
		if ln.Args == nil || ln.FDFrom >= i {
			t.Fatalf("link %d decoded inconsistently (fdFrom=%d)", i, ln.FDFrom)
		}
		checkArgsViews(t, ln.Args, data)
	}

	// Whatever decodes as a binder transaction re-encodes to the same
	// bytes, so the oneway flag survives a round trip.
	if txn, err := d.BinderTxn(data); err == nil {
		if !within(txn.Payload, data) {
			t.Fatal("binder payload is not a view inside the argument")
		}
		again := AppendBinderTxn(nil, txn)
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encode changed the argument: %x -> %x", data, again)
		}
		if out, err := d.BinderTxn(again); err != nil || out.Oneway != txn.Oneway {
			t.Fatalf("re-decode: oneway %v -> %v, %v", txn.Oneway, out.Oneway, err)
		}
	}
	// Whatever decodes as a binder call round-trips its fields.
	if c, err := d.BinderCall(data); err == nil {
		if !within(c.Txn.Payload, data) {
			t.Fatal("binder call payload is not a view inside the frame")
		}
		var again []byte
		switch c.Kind {
		case BinderOnSession:
			again = AppendBinderSession(nil, BinderSession{Session: c.Session, Code: c.Txn.Code, Payload: c.Txn.Payload, Oneway: c.Txn.Oneway})
		case BinderOpen:
			again = AppendBinderOpen(nil, c.Txn.Service)
		default:
			again = AppendBinderFlat(nil, AppendBinderTxn(nil, c.Txn))
		}
		out, err := d.BinderCall(again)
		if err != nil || out.Kind != c.Kind || out.Session != c.Session || out.Txn.Service != c.Txn.Service ||
			out.Txn.Code != c.Txn.Code || out.Txn.Oneway != c.Txn.Oneway || !bytes.Equal(out.Txn.Payload, c.Txn.Payload) {
			t.Fatalf("binder call round trip changed frame: %+v -> %+v, %v", c, out, err)
		}
	}

	if res, err := d.Result(data); err == nil {
		checkResultViews(t, []kernel.Result{res}, data)
	}
	if batch, err := d.ResultBatch(data); err == nil {
		checkResultViews(t, batch, data)
	}
	if cr, err := d.ChainResult(data); err == nil {
		if cr.Executed < 0 || cr.Executed > len(cr.Results) {
			t.Fatal("inconsistent executed count without error")
		}
		checkResultViews(t, cr.Results, data)
	}
	unchanged(t, before, data)
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
		if err := new(Decoder).Args(frame, &out); err != nil {
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
