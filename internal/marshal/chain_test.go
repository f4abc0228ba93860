package marshal

import (
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

func TestChainRoundTrip(t *testing.T) {
	in := []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/app/lib.so", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	}
	frame := AppendChain(nil, in)
	if !IsChainCall(frame) {
		t.Fatal("encoded chain not recognized as chain call")
	}
	if IsSockOp(frame) || IsGrantCall(frame) || IsBinderCall(frame) {
		t.Fatal("chain frame aliases another frame type")
	}
	out, err := new(Decoder).Chain(frame)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d links, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].FDFrom != in[i].FDFrom || out[i].UseCursor != in[i].UseCursor {
			t.Fatalf("link %d bindings: got (%d,%v) want (%d,%v)",
				i, out[i].FDFrom, out[i].UseCursor, in[i].FDFrom, in[i].UseCursor)
		}
		if out[i].Args.Nr != in[i].Args.Nr || out[i].Args.Path != in[i].Args.Path ||
			out[i].Args.Size != in[i].Args.Size || out[i].Args.Flags != in[i].Args.Flags {
			t.Fatalf("link %d args mismatch: %+v vs %+v", i, out[i].Args, in[i].Args)
		}
	}
}

func TestChainInlineEligible(t *testing.T) {
	// The canonical hot chain must fit the SQE inline descriptor area;
	// that is what keeps a fused submission off the chunked copy path.
	frame := AppendChain(nil, []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysOpen, Path: "/data/data/app/files/state.db", Flags: abi.ORdOnly}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		{Args: &kernel.Args{Nr: abi.SysPread64, Size: 4096}, FDFrom: 0, UseCursor: true},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	})
	if len(frame) > RingInlineBytes {
		t.Fatalf("open→fstat→read→close frame is %dB, over the %dB inline bound", len(frame), RingInlineBytes)
	}
}

func TestDecodeChainRejectsBadInput(t *testing.T) {
	valid := AppendChain(nil, []ChainLink{
		{Args: &kernel.Args{Nr: abi.SysFstat, FD: 3}, FDFrom: -1},
		{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"wrong magic", []byte{0xA9, 1, 0, 0, 0}},
		{"magic only", []byte{chainCallMagic}},
		{"zero links", []byte{chainCallMagic, 0, 0, 0, 0}},
		{"over cap", []byte{chainCallMagic, MaxChainLinks + 1, 0, 0, 0}},
		{"truncated body", valid[:len(valid)-3]},
		{"trailing bytes", append(append([]byte{}, valid...), 0xEE)},
		{"fd from self", AppendChain(nil, []ChainLink{{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: 0}})},
		{"fd from later link", AppendChain(nil, []ChainLink{
			{Args: &kernel.Args{Nr: abi.SysFstat}, FDFrom: 1},
			{Args: &kernel.Args{Nr: abi.SysClose}, FDFrom: -1},
		})},
		{"unknown flag", []byte{chainCallMagic, 1, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := new(Decoder).Chain(tc.frame); err == nil {
				t.Fatalf("Chain accepted %q", tc.name)
			}
		})
	}
}

func TestChainResultRoundTrip(t *testing.T) {
	in := ChainResult{
		Executed: 2,
		Results: []kernel.Result{
			{Ret: 3, FD: 3},
			{Ret: -1, Err: abi.ENOENT},
			{Ret: -1, Err: abi.ENOENT}, // short-circuited link carries the errno
		},
	}
	out, err := new(Decoder).ChainResult(AppendChainResult(nil, in))
	if err != nil {
		t.Fatalf("ChainResult: %v", err)
	}
	if out.Executed != in.Executed || len(out.Results) != len(in.Results) {
		t.Fatalf("header mismatch: %+v", out)
	}
	if out.Results[0].Ret != 3 || out.Results[0].FD != 3 {
		t.Fatalf("result 0 mismatch: %+v", out.Results[0])
	}
	for i := 1; i < 3; i++ {
		var errno abi.Errno
		if !errors.As(out.Results[i].Err, &errno) || errno != abi.ENOENT {
			t.Fatalf("result %d errno lost: %v", i, out.Results[i].Err)
		}
	}
}

func TestDecodeChainResultRejectsBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0, 0, 0, 0, 0, 0, 0},                 // zero links
		{1, 0, 0, 0, 2, 0, 0, 0},                 // executed > links
		{MaxChainLinks + 1, 0, 0, 0, 0, 0, 0, 0}, // over cap
		{1, 0, 0, 0, 1, 0, 0, 0},                 // truncated body
		append(AppendChainResult(nil, ChainResult{Executed: 1, Results: []kernel.Result{{Ret: 0}}}), 0x01),
	}
	for i, frame := range cases {
		if _, err := new(Decoder).ChainResult(frame); err == nil {
			t.Fatalf("case %d: bad chain result accepted", i)
		}
	}
}
