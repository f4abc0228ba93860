package marshal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"testing"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// goldenFrames holds the wire bytes the original allocate-per-call
// encoders produced for the inputs below. The append
// encoders must reproduce them byte for byte: every sim charge is a
// function of frame length, so a changed byte count would move the model.
var goldenFrames = map[string]string{
	"args/full":       "01bb0000000000000002070000002f646174612f6103070000002f646174612f6204030000000000000005040000000000000006420000000000000007a401000000000000080d0000007061796c6f61642062797465730900100000000000000ad2040000000000000b02000000000000000c016230c0000000000d0c00000062616e6b2e636f6d3a3434330e01000000000000000f0100000000000000100600000000000000110900000000000000124d0000000000000013112700000000000014112700000000000015000000400000000016020000000000000017070000000000000018090000007368656c6c636f64651902000000736819020000002d6319020000006964",
	"args/negative":   "01130000000000000004ffffffffffffffff05f7ffffffffffffff09fdffffffffffffff0afbffffffffffffff0bfeffffffffffffff11ffffffffffffffff",
	"args/pread":      "01b4000000000000000407000000000000000900100000000000000a0020000000000000",
	"args/preadv":     "0169010000000000000403000000000000000a4000000000000000200500000000000000200000000000000000200010000000000000",
	"args/pwrite":     "01b500000000000000040700000000000000082c01000000070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d0a0010000000000000",
	"args/readv":      "019100000000000000040300000000000000200100000000000000",
	"args/sparse":     "011400000000000000",
	"args/writev":     "0192000000000000000403000000000000001f0200000061621f03000000636465",
	"argsbatch":       "030000004c01000001b500000000000000040700000000000000082c01000000070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d0a001000000000000009000000011400000000000000210000000192000000000000000403000000000000001f0200000061621f03000000636465",
	"binder/oneway":   "fffe4f3105006d6564696109000000706c6179",
	"binder/session":  "a814000000fffe53310700000004030201017061796c6f6164",
	"binder/twoway":   "08006c6f636174696f6e0300000077686572653f",
	"chain":           "aa05000000001500000001050000000000000002070000002f646174612f66020009000000016c0000000000000003001200000001b400000000000000090010000000000000011b000000012101000000000000040400000000000000080400000070696e67020009000000010600000000000000",
	"chainresult":     "0400000002000000120000001a03000000000000001c0300000000000000180000001a09000000000000001b0a000000737461742d6279746573120000001affffffffffffffff1d7000000000000000190000001affffffffffffffff1e0b0000006c696e6b206661696c6564",
	"grantcall":       "a725000000010200000001000000020000000000000000100000ffffffff07000000800000000000010001b4000000000000000409000000000000000900100100000000000a0000100000000000",
	"result/data+err": "1a03000000000000001b030000006162631d0500000000000000",
	"result/empty":    "1a0000000000000000",
	"result/errno":    "1affffffffffffffff1d0d00000000000000",
	"result/errtext":  "1affffffffffffffff1e14000000776569726420647269766572206661696c757265",
	"result/negative": "1af9ffffffffffffff1cffffffffffffffff",
	"result/ok":       "1a2a000000000000001b050000007265706c791c0500000000000000",
	"result/wrapped":  "1affffffffffffffff1d0200000000000000",
	"resultbatch":     "040000001c0000001a2a000000000000001b050000007265706c791c0500000000000000120000001affffffffffffffff1d0d00000000000000220000001affffffffffffffff1e14000000776569726420647269766572206661696c757265090000001a0000000000000000",
	"sg":              "010200000001000000020000000000000000100000ffffffff070000008000000000000100",
	"sockop/connect":  "a91b010000030000000000000000000000000000000c00000062616e6b2e636f6d3a343433",
	"sockop/epoll":    "a9fb0000000500000006000000010000000000000000000000",
	"sockop/negfd":    "a96e010000ffffffff00000000000000001000000000000000",
	"sockop/recv":     "a9230100000400000000000000000000000010000000000000",
	"sockop/send":     "a922010000040000000000000002000000000000000600000063766d3a3830474554202f",
}

// encodeGolden runs the append encoders over the golden inputs.
func encodeGolden(dst func() []byte) map[string][]byte {
	out := map[string][]byte{}
	for k, a := range goldenArgs() {
		out["args/"+k] = AppendArgs(dst(), a)
	}
	for k, r := range goldenResults() {
		out["result/"+k] = AppendResult(dst(), r)
	}
	out["argsbatch"] = AppendArgsBatch(dst(), goldenArgsBatch())
	out["resultbatch"] = AppendResultBatch(dst(), goldenResultBatch())
	out["chain"] = AppendChain(dst(), goldenChain())
	out["chainresult"] = AppendChainResult(dst(), goldenChainResult())
	for k, a := range goldenSockOps() {
		out["sockop/"+k] = AppendSockOp(dst(), a)
	}
	out["sg"] = AppendSG(dst(), goldenSG())
	out["grantcall"] = AppendGrantCall(dst(), goldenSG(), goldenGrantArgs())
	for k, txn := range goldenBinderTxns() {
		out["binder/"+k] = AppendBinderTxn(dst(), txn)
	}
	out["binder/session"] = AppendBinderSession(dst(), goldenBinderSession())
	return out
}

func TestAppendEncodersMatchGoldenFrames(t *testing.T) {
	// Appending after a prefix must leave the prefix alone and add exactly
	// the golden bytes, whatever the destination's spare capacity.
	prefix := []byte("prefix")
	dsts := map[string]func() []byte{
		"nil":    func() []byte { return nil },
		"prefix": func() []byte { return bytes.Clone(prefix) },
		"roomy":  func() []byte { return append(make([]byte, 0, 1<<16), prefix...) },
	}
	for dname, dst := range dsts {
		got := encodeGolden(dst)
		if len(got) != len(goldenFrames) {
			t.Fatalf("%s: %d frames encoded, %d golden", dname, len(got), len(goldenFrames))
		}
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			want, ok := goldenFrames[k]
			if !ok {
				t.Fatalf("%s: no golden frame for %q", dname, k)
			}
			frame := got[k]
			if dname != "nil" {
				if !bytes.HasPrefix(frame, prefix) {
					t.Fatalf("%s/%s: prefix clobbered", dname, k)
				}
				frame = frame[len(prefix):]
			}
			if h := hex.EncodeToString(frame); h != want {
				t.Errorf("%s/%s:\n got %s\nwant %s", dname, k, h, want)
			}
		}
	}
}

// TestAppendEncodersGrowOnce: the sizing pass is exact, so encoding into
// a frame with room allocates nothing and encoding into nil allocates
// the frame once.
func TestAppendEncodersGrowOnce(t *testing.T) {
	a := goldenArgs()["full"]
	frame := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { frame = AppendArgs(frame[:0], a) }); n != 0 {
		t.Fatalf("AppendArgs into a roomy frame: %v allocs, want 0", n)
	}
	res := goldenResults()["ok"]
	if n := testing.AllocsPerRun(100, func() { frame = AppendResult(frame[:0], res) }); n != 0 {
		t.Fatalf("AppendResult into a roomy frame: %v allocs, want 0", n)
	}
	batch := goldenArgsBatch()
	if n := testing.AllocsPerRun(100, func() { frame = AppendArgsBatch(nil, batch) }); n != 1 {
		t.Fatalf("AppendArgsBatch into nil: %v allocs, want 1", n)
	}
	chain := goldenChain()
	if n := testing.AllocsPerRun(100, func() { frame = AppendChain(nil, chain) }); n != 1 {
		t.Fatalf("AppendChain into nil: %v allocs, want 1", n)
	}
}

// TestGoldenFramesDecode: the golden frames decode back to their inputs.
func TestGoldenFramesDecode(t *testing.T) {
	for k, a := range goldenArgs() {
		frame, _ := hex.DecodeString(goldenFrames["args/"+k])
		var got kernel.Args
		if err := new(Decoder).Args(frame, &got); err != nil {
			t.Fatalf("args/%s: %v", k, err)
		}
		if !bytes.Equal(AppendArgs(nil, &got), frame) {
			t.Fatalf("args/%s: decode/encode not idempotent", k)
		}
		if got.Nr != a.Nr || got.FD != a.FD || !bytes.Equal(got.Buf, a.Buf) {
			t.Fatalf("args/%s: decoded %+v", k, got)
		}
	}
	var d Decoder
	for k, want := range goldenBinderTxns() {
		frame, _ := hex.DecodeString(goldenFrames["binder/"+k])
		got, err := d.BinderTxn(frame)
		if err != nil || got.Service != want.Service || got.Code != want.Code || got.Oneway != want.Oneway || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("binder/%s: decoded %+v, %v", k, got, err)
		}
	}
	frame, _ := hex.DecodeString(goldenFrames["binder/session"])
	if got, err := d.BinderCall(frame); err != nil || got.Kind != BinderOnSession || got.Session != 7 || got.Txn.Code != 0x01020304 || !got.Txn.Oneway || string(got.Txn.Payload) != "payload" {
		t.Fatalf("binder/session: decoded %+v, %v", got, err)
	}
	for k, r := range goldenResults() {
		frame, _ := hex.DecodeString(goldenFrames["result/"+k])
		got, err := new(Decoder).Result(frame)
		if err != nil {
			t.Fatalf("result/%s: %v", k, err)
		}
		if got.Ret != r.Ret || got.FD != r.FD || !bytes.Equal(got.Data, r.Data) || (got.Err == nil) != (r.Err == nil) {
			t.Fatalf("result/%s: decoded %+v", k, got)
		}
	}
}

// Inputs of the golden table. Together they populate every args and
// result tag, both iov styles, batches, chains, chain results, error
// results and the fixed-layout frames.

func goldenArgs() map[string]*kernel.Args {
	pattern := make([]byte, 300)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	return map[string]*kernel.Args{
		"full": {
			Nr: abi.SysSendfile, Path: "/data/a", Path2: "/data/b",
			FD: 3, FD2: 4, Flags: abi.ORdWr | abi.OCreat, Mode: 0o644,
			Buf: []byte("payload bytes"), Size: 4096, Off: 1234, Whence: abi.SeekEnd,
			Request: 0xC0306201, Addr: "bank.com:443",
			Family: netstack.AFInet, SockType: netstack.SockStream, Proto: 6,
			Sig: 9, TargetPID: 77, UID: 10001, GID: 10001,
			Vaddr: 0x40000000, Pages: 2, Prot: 7, Tag: "shellcode",
			Argv: []string{"sh", "", "-c", "id"},
		},
		"negative": {Nr: abi.SysLseek, FD: -1, FD2: -9, Off: -5, Whence: -2, Size: -3, Sig: -1},
		"sparse":   {Nr: abi.SysGetpid},
		"pread":    {Nr: abi.SysPread64, FD: 7, Size: 4096, Off: 8192},
		"pwrite":   {Nr: abi.SysPwrite64, FD: 7, Buf: pattern, Off: 4096},
		"writev":   {Nr: abi.SysWritev, FD: 3, Iov: [][]byte{[]byte("ab"), {}, []byte("cde")}},
		"preadv":   {Nr: abi.SysPreadv, FD: 3, Off: 64, Iov: [][]byte{make([]byte, 5), {}, make([]byte, 4096)}},
		"readv":    {Nr: abi.SysReadv, FD: 3, Iov: [][]byte{make([]byte, 1)}},
	}
}

func goldenResults() map[string]kernel.Result {
	return map[string]kernel.Result{
		"ok":       {Ret: 42, Data: []byte("reply"), FD: 5},
		"empty":    {},
		"negative": {Ret: -7, FD: -1},
		"errno":    {Ret: -1, Err: abi.EACCES},
		"wrapped":  {Ret: -1, Err: fmt.Errorf("open: %w", abi.ENOENT)},
		"errtext":  {Ret: -1, Err: errors.New("weird driver failure")},
		"data+err": {Ret: 3, Data: []byte("abc"), Err: abi.EIO},
	}
}

func goldenArgsBatch() []*kernel.Args {
	a := goldenArgs()
	return []*kernel.Args{a["pwrite"], a["sparse"], a["writev"]}
}

func goldenResultBatch() []kernel.Result {
	r := goldenResults()
	return []kernel.Result{r["ok"], r["errno"], r["errtext"], r["empty"]}
}

func goldenChain() []ChainLink {
	return []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/f", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysSend, FD: 4, Buf: []byte("ping")}, FDFrom: -1, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}
}

func goldenChainResult() ChainResult {
	return ChainResult{Executed: 2, Results: []kernel.Result{
		{Ret: 3, FD: 3},
		{Ret: 9, Data: []byte("stat-bytes")},
		{Ret: -1, Err: abi.EHOSTDOWN},
		{Ret: -1, Err: errors.New("link failed")},
	}}
}

func goldenSockOps() map[string]*kernel.Args {
	return map[string]*kernel.Args{
		"send":    {Nr: abi.SysSendto, FD: 4, Flags: 2, Addr: "cvm:80", Buf: []byte("GET /")},
		"recv":    {Nr: abi.SysRecv, FD: 4, Size: 4096},
		"epoll":   {Nr: abi.SysEpollCtl, FD: 5, FD2: 6, Flags: 1},
		"negfd":   {Nr: abi.SysAccept4, FD: -1, Size: 16},
		"connect": {Nr: abi.SysConnect, FD: 3, Addr: "bank.com:443"},
	}
}

func goldenSG() *SGDescriptor {
	return &SGDescriptor{Writable: true, Entries: []SGEntry{
		{ID: 1, Gen: 2, Off: 0, Len: 4096},
		{ID: 0xFFFFFFFF, Gen: 7, Off: 128, Len: 65536},
	}}
}

func goldenGrantArgs() *kernel.Args {
	return &kernel.Args{Nr: abi.SysPread64, FD: 9, Size: 69632, Off: 1 << 20}
}

// The binder frames were recorded from the codec's earlier home in
// internal/binder (EncodeTransaction, and EncodeSessionFrame inside the
// binder-call envelope).
func goldenBinderTxns() map[string]binder.Transaction {
	return map[string]binder.Transaction{
		"twoway": {Service: "location", Code: 3, Payload: []byte("where?")},
		"oneway": {Service: "media", Code: 9, Payload: []byte("play"), Oneway: true},
	}
}

func goldenBinderSession() BinderSession {
	return BinderSession{Session: 7, Code: 0x01020304, Payload: []byte("payload"), Oneway: true}
}

// TestAppendResultErrnoAllocs: an error result whose Err is a bare errno,
// the guest's common failure, encodes into a roomy frame without
// allocating; a wrapped errno still encodes as its errno.
func TestAppendResultErrnoAllocs(t *testing.T) {
	frame := make([]byte, 0, 256)
	bare := kernel.Result{Ret: -1, Err: abi.EAGAIN}
	if n := testing.AllocsPerRun(100, func() { frame = AppendResult(frame[:0], bare) }); n != 0 {
		t.Errorf("AppendResult of a bare errno: %v allocs, want 0", n)
	}
	wrapped := AppendResult(nil, kernel.Result{Ret: -1, Err: fmt.Errorf("walk: %w", abi.EAGAIN)})
	if !bytes.Equal(wrapped, AppendResult(nil, bare)) {
		t.Errorf("wrapped errno encodes as %x, bare as %x", wrapped, AppendResult(nil, bare))
	}
}
