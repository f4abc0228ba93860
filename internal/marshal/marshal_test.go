package marshal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/sim"
)

func TestArgsRoundTripFull(t *testing.T) {
	in := &kernel.Args{
		Nr: abi.SysSendfile, Path: "/data/a", Path2: "/data/b",
		FD: 3, FD2: 4, Flags: abi.ORdWr | abi.OCreat, Mode: 0o644,
		Buf: []byte("payload bytes"), Size: 4096, Off: 1234, Whence: abi.SeekEnd,
		Request: 0xC0306201, Addr: "bank.com:443",
		Family: netstack.AFInet, SockType: netstack.SockStream, Proto: 6,
		Sig: 9, TargetPID: 77, UID: 10001, GID: 10001,
		Vaddr: 0x40000000, Pages: 2, Prot: 7, Tag: "shellcode",
		Argv: []string{"sh", "-c", "id"},
	}
	out, err := decodeArgs(AppendArgs(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestArgsRoundTripSparse(t *testing.T) {
	in := &kernel.Args{Nr: abi.SysGetpid}
	out, err := decodeArgs(AppendArgs(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("sparse round trip: %+v vs %+v", in, out)
	}
}

func TestArgsRoundTripProperty(t *testing.T) {
	f := func(path string, fd uint8, buf []byte, off int64, vaddr uint64) bool {
		in := &kernel.Args{Nr: abi.SysPwrite64, Path: path, FD: int(fd), Buf: buf, Off: off, Vaddr: vaddr}
		out, err := decodeArgs(AppendArgs(nil, in))
		if err != nil {
			return false
		}
		// Empty Buf encodes as absent and decodes as nil; normalize.
		if len(in.Buf) == 0 {
			in.Buf = nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResultRoundTripSuccess(t *testing.T) {
	in := kernel.Result{Ret: 42, Data: []byte("reply"), FD: 5}
	out, err := new(Decoder).Result(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Ret != 42 || string(out.Data) != "reply" || out.FD != 5 || out.Err != nil {
		t.Fatalf("out = %+v", out)
	}
}

func TestResultRoundTripErrnoMatchable(t *testing.T) {
	in := kernel.Result{Ret: -1, Err: abi.EACCES}
	out, err := new(Decoder).Result(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Err, abi.EACCES) {
		t.Fatalf("errno did not survive: %v", out.Err)
	}
}

func TestResultRoundTripForeignError(t *testing.T) {
	in := kernel.Result{Ret: -1, Err: errors.New("weird driver failure")}
	out, err := new(Decoder).Result(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Err, abi.EIO) {
		t.Fatalf("foreign error should degrade to EIO: %v", out.Err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := decodeArgs([]byte{0xEE, 1, 2}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("args garbage: %v", err)
	}
	if _, err := new(Decoder).Result([]byte{0xEE}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("result garbage: %v", err)
	}
	// Truncated length prefix.
	if _, err := decodeArgs([]byte{2, 0xFF, 0xFF, 0xFF}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("args truncated: %v", err)
	}
}

func newChannelForTest(t *testing.T) (*PageChannel, *sim.Clock, sim.LatencyModel) {
	t.Helper()
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	phys := kernel.NewPhysical(256 << 20)
	cvm, err := hypervisor.Launch(phys, hypervisor.Config{
		Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewPageChannel(cvm, clock, model, 0), clock, model
}

func TestPageChannelRoundTripDeliversBytes(t *testing.T) {
	ch, _, _ := newChannelForTest(t)
	var got []byte
	resp, err := ch.RoundTrip(nil, []byte("forwarded syscall"), func(req []byte) []byte {
		got = append([]byte(nil), req...)
		return []byte("result")
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "forwarded syscall" || string(resp) != "result" {
		t.Fatalf("got %q resp %q", got, resp)
	}
}

func TestPageChannelBytesVisibleInGuestFrames(t *testing.T) {
	ch, _, _ := newChannelForTest(t)
	payload := []byte("the container can see this")
	if _, err := ch.RoundTrip(nil, payload, func(req []byte) []byte { return req[:8] }); err != nil {
		t.Fatal(err)
	}
	// After the round trip, the first channel frame holds the response
	// (written last); verify the channel is real guest-visible memory.
	head, err := ch.LastChannelBytes(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, payload[:8]) {
		t.Fatalf("channel frame head = %q, want %q", head, payload[:8])
	}
}

func TestPageChannelCostModel(t *testing.T) {
	ch, clock, model := newChannelForTest(t)
	payload := make([]byte, 2*abi.PageSize) // 2 chunks out
	before := clock.Now()
	if _, err := ch.RoundTrip(nil, payload, func([]byte) []byte { return make([]byte, 100) }); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now() - before
	want := 2*model.ChunkOverhead + 2*abi.PageSize*model.CopyToGuestPerByte + // out
		model.WorldSwitch + // interrupt injection
		1*model.ChunkOverhead + 100*model.CopyFromGuestPerByte + // back
		model.WorldSwitch // hypercall
	if elapsed != want {
		t.Fatalf("round trip cost %v, want %v", elapsed, want)
	}
}

func TestSocketChannelCostsMoreForBulkData(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	phys := kernel.NewPhysical(256 << 20)
	cvm, err := hypervisor.Launch(phys, hypervisor.Config{
		Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pageCh := NewPageChannel(cvm, clock, model, 0)
	sockCh := NewSocketChannel(cvm, clock, model)

	payload := make([]byte, 16*abi.PageSize)
	handler := func([]byte) []byte { return []byte("ok") }

	t0 := clock.Now()
	if _, err := pageCh.RoundTrip(nil, payload, handler); err != nil {
		t.Fatal(err)
	}
	pageCost := clock.Now() - t0

	t1 := clock.Now()
	if _, err := sockCh.RoundTrip(nil, payload, handler); err != nil {
		t.Fatal(err)
	}
	sockCost := clock.Now() - t1

	if sockCost <= pageCost {
		t.Fatalf("socket transport (%v) should exceed remapped pages (%v) — the reason the prototype was discarded", sockCost, pageCost)
	}
}

func TestChunkSizeAffectsOverhead(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultLatencyModel()
	phys := kernel.NewPhysical(256 << 20)
	cvm, err := hypervisor.Launch(phys, hypervisor.Config{
		Clock: clock, Model: model, MemoryBytes: 64 << 20, ChannelPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	small := NewPageChannel(cvm, clock, model, 1024)
	large := NewPageChannel(cvm, clock, model, 16384)
	payload := make([]byte, 64<<10)
	handler := func([]byte) []byte { return nil }

	t0 := clock.Now()
	if _, err := small.RoundTrip(nil, payload, handler); err != nil {
		t.Fatal(err)
	}
	smallCost := clock.Now() - t0
	t1 := clock.Now()
	if _, err := large.RoundTrip(nil, payload, handler); err != nil {
		t.Fatal(err)
	}
	largeCost := clock.Now() - t1
	if smallCost <= largeCost {
		t.Fatalf("1KB chunks (%v) should cost more than 16KB chunks (%v)", smallCost, largeCost)
	}
	if small.ChunkSize() != 1024 || large.ChunkSize() != 16384 {
		t.Fatal("chunk size not retained")
	}
}

func TestTransportNames(t *testing.T) {
	ch, _, _ := newChannelForTest(t)
	if ch.Name() != "remapped-pages" {
		t.Fatalf("name = %q", ch.Name())
	}
}

// TestDecodeNeverPanicsOnRandomBytes: a compromised container controls the
// response bytes, so the host-side decoder must reject garbage gracefully,
// never panic.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := sim.NewRNG(1337)
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Bytes(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Args panicked on %x: %v", buf, r)
				}
			}()
			_, _ = decodeArgs(buf)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Result panicked on %x: %v", buf, r)
				}
			}()
			_, _ = new(Decoder).Result(buf)
		}()
	}
}

// TestDecodeTruncatedValidMessages: every prefix of a valid encoding either
// decodes or errors cleanly.
func TestDecodeTruncatedValidMessages(t *testing.T) {
	full := AppendArgs(nil, &kernel.Args{
		Nr: abi.SysPwrite64, Path: "/data/data/app/file", FD: 7,
		Buf: make([]byte, 300), Off: 12345, Tag: "tag",
	})
	for n := 0; n < len(full); n++ {
		if _, err := decodeArgs(full[:n]); err != nil && !errors.Is(err, abi.EINVAL) {
			t.Fatalf("prefix %d: unexpected error class %v", n, err)
		}
	}
}
