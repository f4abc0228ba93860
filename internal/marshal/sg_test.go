package marshal

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"anception/internal/abi"
	"anception/internal/kernel"
)

func TestSGRoundTrip(t *testing.T) {
	in := &SGDescriptor{
		Writable: true,
		Entries: []SGEntry{
			{ID: 1, Gen: 1, Off: 0, Len: 4096},
			{ID: 9, Gen: 3, Off: 512, Len: 65536},
		},
	}
	out := &SGDescriptor{}
	if err := decodeSG(AppendSG(nil, in), out); err != nil {
		t.Fatal(err)
	}
	if out.Writable != in.Writable || len(out.Entries) != len(in.Entries) {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out.Entries[i], in.Entries[i])
		}
	}
	if got, want := out.TotalLen(), 4096+65536; got != want {
		t.Fatalf("TotalLen = %d, want %d", got, want)
	}
}

func TestSGEmptyDescriptor(t *testing.T) {
	out := &SGDescriptor{Writable: true, Entries: []SGEntry{{ID: 1}}}
	if err := decodeSG(AppendSG(nil, &SGDescriptor{}), out); err != nil {
		t.Fatal(err)
	}
	if out.Writable || len(out.Entries) != 0 || out.TotalLen() != 0 {
		t.Fatalf("empty descriptor decoded as %+v", out)
	}
}

func TestDecodeSGRejectsHostileInput(t *testing.T) {
	valid := AppendSG(nil, &SGDescriptor{Entries: []SGEntry{{ID: 1, Gen: 1, Len: 8}}})
	cases := map[string][]byte{
		"empty":            {},
		"bad flag":         append([]byte{7}, valid[1:]...),
		"truncated entry":  valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte{}, valid...), 0xCC),
		"count over cap":   {0, 2, 0xFF, 0xFF, 0xFF, 0x7F},
		"count past bytes": {0, 2, 5, 0, 0, 0},
	}
	for name, b := range cases {
		if err := decodeSG(b, &SGDescriptor{}); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestGrantCallFrameRoundTrip(t *testing.T) {
	desc := &SGDescriptor{Writable: true, Entries: []SGEntry{{ID: 2, Gen: 1, Len: 16384}}}
	call := &kernel.Args{Nr: abi.SysPread64, FD: 5, Size: 16384, Off: 4096}
	args := AppendArgs(nil, call)
	frame := AppendGrantCall(nil, desc, call)

	if !IsGrantCall(frame) {
		t.Fatal("frame not recognized as grant call")
	}
	if IsGrantCall(args) {
		t.Fatal("plain args payload misread as grant call")
	}

	gotDesc := &SGDescriptor{}
	gotArgs, err := splitGrantCall(frame, gotDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !gotDesc.Writable || len(gotDesc.Entries) != 1 || gotDesc.Entries[0] != desc.Entries[0] {
		t.Fatalf("descriptor: %+v", gotDesc)
	}
	if !bytes.Equal(gotArgs, args) {
		t.Fatal("args payload corrupted by framing")
	}
	decoded, err := decodeArgs(gotArgs)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Nr != abi.SysPread64 || decoded.FD != 5 || decoded.Size != 16384 {
		t.Fatalf("args: %+v", decoded)
	}
}

func TestDecodeGrantCallRejectsTruncation(t *testing.T) {
	desc := &SGDescriptor{Entries: []SGEntry{{ID: 1, Gen: 1, Len: 4}}}
	frame := AppendGrantCall(nil, desc, &kernel.Args{})
	// Every cut inside the magic, length prefix or descriptor must fail;
	// the args frame after it is decoded separately.
	for cut := 1; cut < 1+4+len(AppendSG(nil, desc)); cut++ {
		if _, err := splitGrantCall(frame[:cut], &SGDescriptor{}); err == nil {
			t.Fatalf("frame truncated to %d bytes decoded without error", cut)
		}
	}
	if _, err := splitGrantCall([]byte("not a grant"), &SGDescriptor{}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("non-grant payload: %v", err)
	}
}

// TestGrantCallDecodeAllocs: a Decoder that decodes grant calls keeps
// the descriptor's entries, so a repeated call allocates nothing, and a
// shorter descriptor after a longer one yields exactly its own entries.
func TestGrantCallDecodeAllocs(t *testing.T) {
	long := &SGDescriptor{Writable: true, Entries: []SGEntry{{ID: 7, Gen: 2, Len: 4096}, {ID: 8, Gen: 2, Off: 16, Len: 512}}}
	short := &SGDescriptor{Entries: []SGEntry{{ID: 9, Gen: 2, Len: 65536}}}
	call := &kernel.Args{Nr: abi.SysPwrite64, FD: 5, Size: 65536, Off: 4096}
	longFrame, shortFrame := AppendGrantCall(nil, long, call), AppendGrantCall(nil, short, call)
	var dec Decoder
	var a kernel.Args
	decode := func(frame []byte, want *SGDescriptor) {
		d, err := dec.GrantCall(frame, &a)
		if err != nil {
			t.Fatal(err)
		}
		if d.Writable != want.Writable || !slices.Equal(d.Entries, want.Entries) {
			t.Fatalf("descriptor %+v, want %+v", d, want)
		}
		if a.Nr != call.Nr || a.FD != call.FD || a.Size != call.Size || a.Off != call.Off {
			t.Fatalf("args %+v, want %+v", a, call)
		}
	}
	decode(longFrame, long)
	decode(shortFrame, short)
	if n := testing.AllocsPerRun(100, func() { decode(longFrame, long) }); n != 0 {
		t.Errorf("repeated grant-call decode: %v allocs, want 0", n)
	}
	if _, err := dec.GrantCall([]byte("not a grant"), &a); !errors.Is(err, abi.EINVAL) {
		t.Errorf("non-grant payload: %v", err)
	}
}
