package marshal

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// The zero-copy data path replaces inline chunked payloads with a
// scatter-gather descriptor: a fixed-size header naming granted extents
// (hypervisor.GrantTable slots) that the guest resolves back to pinned
// host pages. The descriptor is tiny and size-independent, so a bulk
// call's channel cost stops scaling with its payload.

// grantCallMagic is the first byte of a grant-call frame. TLV tags start
// at 1 and stay small; the magic sits far outside that range so a plain
// args frame can never alias a grant call.
const grantCallMagic uint8 = 0xA7

// sgMaxEntries bounds a descriptor's entry count; it is more than any
// vectored call the kernel accepts and keeps a hostile length field from
// forcing a huge allocation during decode.
const sgMaxEntries = 1024

// SGEntry references one granted extent: the grant slot, the boot
// generation it was issued against, and the byte window within the
// grant. Gen is what makes restarts safe — a stale entry fails
// EHOSTDOWN at resolve time instead of touching reused pages.
type SGEntry struct {
	ID  uint32
	Gen uint32
	Off uint32
	Len uint32
}

// SGDescriptor is the scatter-gather list of one zero-copy call.
// Writable marks read-style calls: the guest fills the extents instead
// of consuming them, and the reply carries only the return count.
type SGDescriptor struct {
	Writable bool
	Entries  []SGEntry
}

// TotalLen sums the entry windows.
func (d *SGDescriptor) TotalLen() int {
	n := 0
	for _, e := range d.Entries {
		n += int(e.Len)
	}
	return n
}

// AppendSG appends a flattened descriptor.
func AppendSG(dst []byte, d *SGDescriptor) []byte {
	w := filler(dst, sgSize(d))
	encodeSG(&w, d)
	return w.buf
}

// sgSize is the exact length of a flattened descriptor.
func sgSize(d *SGDescriptor) int { return 1 + 4 + 16*len(d.Entries) }

func encodeSG(w *writer, d *SGDescriptor) {
	if d.Writable {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(int64(len(d.Entries)))
	for _, e := range d.Entries {
		w.u32(int64(e.ID))
		w.u32(int64(e.Gen))
		w.u32(int64(e.Off))
		w.u32(int64(e.Len))
	}
}

// DecodeSG reverses AppendSG. The entry count is validated against both
// the sgMaxEntries cap and the bytes actually present, so truncated or
// hostile input fails cleanly instead of allocating.
func DecodeSG(b []byte) (*SGDescriptor, error) {
	r := &reader{buf: b}
	wr := r.u8()
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if wr > 1 {
		return nil, fmt.Errorf("marshal: bad sg writable flag %d: %w", wr, abi.EINVAL)
	}
	if n < 0 || n > sgMaxEntries || len(b)-r.pos < n*16 {
		return nil, fmt.Errorf("marshal: bad sg entry count %d: %w", n, abi.EINVAL)
	}
	d := &SGDescriptor{Writable: wr == 1, Entries: make([]SGEntry, n)}
	for i := 0; i < n; i++ {
		d.Entries[i] = SGEntry{
			ID:  uint32(r.u32()),
			Gen: uint32(r.u32()),
			Off: uint32(r.u32()),
			Len: uint32(r.u32()),
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after sg descriptor: %w", len(b)-r.pos, abi.EINVAL)
	}
	return d, nil
}

// AppendGrantCall appends a zero-copy call frame: the magic byte, the
// length-prefixed descriptor, then the args frame of the call with its
// bulk payload stripped (the extents travel by reference).
func AppendGrantCall(dst []byte, d *SGDescriptor, a *kernel.Args) []byte {
	w := filler(dst, 1+4+sgSize(d)+argsSize(a))
	w.u8(grantCallMagic)
	w.u32(int64(sgSize(d)))
	encodeSG(&w, d)
	encodeArgs(&w, a)
	return w.buf
}

// IsGrantCall reports whether a channel payload is a grant-call frame.
func IsGrantCall(b []byte) bool {
	return len(b) > 0 && b[0] == grantCallMagic
}

// DecodeGrantCall splits a grant-call frame back into its descriptor and
// args payload (a view into b).
func DecodeGrantCall(b []byte) (*SGDescriptor, []byte, error) {
	if !IsGrantCall(b) {
		return nil, nil, fmt.Errorf("marshal: not a grant call: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil || n < 0 || r.pos+n > len(b) {
		return nil, nil, errTruncated
	}
	d, err := DecodeSG(b[r.pos : r.pos+n])
	if err != nil {
		return nil, nil, err
	}
	return d, b[r.pos+n:], nil
}
