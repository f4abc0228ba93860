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
	out, err := DecodeArgsBatch(AppendArgsBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("batch round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestArgsBatchEmpty(t *testing.T) {
	out, err := DecodeArgsBatch(AppendArgsBatch(nil, nil))
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
	out, err := DecodeResultBatch(AppendResultBatch(nil, in))
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
		if _, err := DecodeArgsBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(enc))
		}
	}
}

func TestArgsBatchTrailingBytesFail(t *testing.T) {
	enc := AppendArgsBatch(nil, []*kernel.Args{{Nr: abi.SysFsync, FD: 3}})
	if _, err := DecodeArgsBatch(append(enc, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestResultBatchTruncatedAndTrailingFail(t *testing.T) {
	enc := AppendResultBatch(nil, []kernel.Result{{Ret: 1}, {Ret: 2}})
	if _, err := DecodeResultBatch(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated result batch accepted")
	}
	if _, err := DecodeResultBatch(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
