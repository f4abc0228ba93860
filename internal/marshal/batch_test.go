package marshal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

func TestArgsBatchRoundTrip(t *testing.T) {
	in := []*kernel.Args{
		{Nr: abi.SysPwrite64, FD: 7, Buf: bytes.Repeat([]byte{0xEE}, 4096), Off: 0},
		{Nr: abi.SysPwrite64, FD: 7, Buf: []byte("tail"), Off: 8192},
		{Nr: abi.SysFsync, FD: 7},
	}
	out, err := new(Decoder).ArgsBatch(AppendArgsBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("batch round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestArgsBatchEmpty(t *testing.T) {
	out, err := new(Decoder).ArgsBatch(AppendArgsBatch(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty batch decoded to %d calls", len(out))
	}
}

func TestResultBatchRoundTrip(t *testing.T) {
	in := []kernel.Result{
		{Ret: 4096},
		{Ret: -1, Err: abi.ENOSPC},
		{Ret: 17, Data: []byte("partial")},
	}
	out, err := new(Decoder).ResultBatch(AppendResultBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d results, want %d", len(out), len(in))
	}
	if out[0].Ret != 4096 || out[2].Ret != 17 || !bytes.Equal(out[2].Data, []byte("partial")) {
		t.Fatalf("payload mismatch: %+v", out)
	}
	if !errors.Is(out[1].Err, abi.ENOSPC) {
		t.Fatalf("error not preserved: %v", out[1].Err)
	}
}

func TestArgsBatchTruncatedFails(t *testing.T) {
	enc := AppendArgsBatch(nil, []*kernel.Args{
		{Nr: abi.SysPwrite64, FD: 3, Buf: []byte("abcdef"), Off: 64},
	})
	for _, cut := range []int{1, 4, 6, len(enc) - 1} {
		if _, err := new(Decoder).ArgsBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(enc))
		}
	}
}

func TestArgsBatchTrailingBytesFail(t *testing.T) {
	enc := AppendArgsBatch(nil, []*kernel.Args{{Nr: abi.SysFsync, FD: 3}})
	if _, err := new(Decoder).ArgsBatch(append(enc, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestResultBatchTruncatedAndTrailingFail(t *testing.T) {
	enc := AppendResultBatch(nil, []kernel.Result{{Ret: 1}, {Ret: 2}})
	if _, err := new(Decoder).ResultBatch(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated result batch accepted")
	}
	if _, err := new(Decoder).ResultBatch(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestResultBatchShortAfterLong: a short result batch decoded by the
// Decoder that decoded a long one reuses its storage and yields exactly
// its own results, with nothing left over from the long batch in the
// same slots.
func TestResultBatchShortAfterLong(t *testing.T) {
	long := []kernel.Result{
		{Ret: 4096},
		{Ret: -1, Err: abi.ENOSPC},
		{Ret: 5, Data: []byte("stale"), FD: 9},
		{Ret: 8192},
	}
	short := []kernel.Result{{Ret: 1}, {Ret: 2}}
	var d Decoder
	dst, err := d.ResultBatch(AppendResultBatch(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ResultBatch(AppendResultBatch(nil, short))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("short batch did not reuse the long batch's storage")
	}
	if !reflect.DeepEqual(out, []kernel.Result{{Ret: 1}, {Ret: 2}}) {
		t.Fatalf("short batch decoded to %+v", out)
	}
}

// TestResultBatchDecodeAllocs: a Decoder whose storage holds a result
// batch decodes it again without allocating.
func TestResultBatchDecodeAllocs(t *testing.T) {
	enc := AppendResultBatch(nil, []kernel.Result{
		{Ret: 4096},
		{Ret: -1, Err: abi.ENOSPC},
		{Ret: 17, Data: []byte("partial")},
	})
	var d Decoder
	decode := func() {
		if out, err := d.ResultBatch(enc); err != nil || len(out) != 3 {
			t.Fatalf("decode: %d results, %v", len(out), err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("repeated result batch decode: %.1f allocs, want 0", allocs)
	}
}

// TestBatchDecodeAllocs: a Decoder that decodes the same batch again
// reuses its storage and kept strings, so the repeat allocates nothing.
func TestBatchDecodeAllocs(t *testing.T) {
	enc := AppendArgsBatch(nil, []*kernel.Args{
		{Nr: abi.SysPwrite64, FD: 7, Buf: bytes.Repeat([]byte{0xEE}, 4096), Off: 0},
		{Nr: abi.SysPwrite64, FD: 7, Buf: []byte("tail"), Off: 8192},
		{Nr: abi.SysUnlink, Path: "/data/data/app/old.db"},
		{Nr: abi.SysFsync, FD: 7},
	})
	var d Decoder
	decode := func() {
		if calls, err := d.ArgsBatch(enc); err != nil || len(calls) != 4 {
			t.Fatalf("decode: %d calls, %v", len(calls), err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("repeated batch decode: %.1f allocs, want 0", allocs)
	}
}

// TestBatchDecodeShortAfterLong: a short batch decoded after a long one
// by the same Decoder yields exactly its own calls, with no field left
// over from the long batch's calls in the same slots.
func TestBatchDecodeShortAfterLong(t *testing.T) {
	long := []*kernel.Args{
		{Nr: abi.SysPwrite64, FD: 7, Buf: []byte("first"), Off: 4096},
		{Nr: abi.SysRename, Path: "/data/a", Path2: "/data/b"},
		{Nr: abi.SysPwrite64, FD: 9, Buf: []byte("third"), Off: 64},
		{Nr: abi.SysFsync, FD: 9},
	}
	short := []*kernel.Args{
		{Nr: abi.SysFsync, FD: 3},
		{Nr: abi.SysPwrite64, FD: 3, Buf: []byte("x"), Off: 1},
	}
	var d Decoder
	if out, err := d.ArgsBatch(AppendArgsBatch(nil, long)); err != nil || !reflect.DeepEqual(out, long) {
		t.Fatalf("long batch = %+v, %v", out, err)
	}
	out, err := d.ArgsBatch(AppendArgsBatch(nil, short))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, short) {
		t.Fatalf("short batch after a long one:\n got %+v\nwant %+v", out, short)
	}
}
