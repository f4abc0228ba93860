// Package marshal implements the host<->CVM data channel of the Anception
// layer: encoding of system-call arguments and results (including the
// pointer translation the paper describes — user-space buffers referenced
// by pointer arguments are copied into the message), fixed-size chunking,
// and the two transports the authors prototyped: remapped guest kernel
// pages (the shipped design) and a socket-style channel (discarded for its
// extra copies; kept here as ablation A5).
package marshal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
	"anception/internal/netstack"
)

// field tags of the TLV wire format.
const (
	tagNr uint8 = iota + 1
	tagPath
	tagPath2
	tagFD
	tagFD2
	tagFlags
	tagMode
	tagBuf
	tagSize
	tagOff
	tagWhence
	tagRequest
	tagAddr
	tagFamily
	tagSockType
	tagProto
	tagSig
	tagTargetPID
	tagUID
	tagGID
	tagVaddr
	tagPages
	tagProt
	tagTag
	tagArgv

	tagRet
	tagData
	tagResFD
	tagErrno
	tagErrText

	// Vectored I/O segments. Write-style vectors (writev/pwritev) inline
	// each segment's bytes under tagIov; read-style vectors
	// (readv/preadv) ship only the segment lengths under tagIovSpan —
	// the guest allocates scratch of that shape and the filled bytes
	// come back in the result's tagData.
	tagIov
	tagIovSpan
)

// writer emits the TLV wire format. A sizing writer only counts the bytes
// it would emit, so every encoder body runs twice from one definition —
// once to size the frame exactly, once to fill it — and the caller's frame
// grows at most once per message.
type writer struct {
	buf    []byte
	n      int
	sizing bool
}

func (w *writer) u8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

func (w *writer) u32(v int64) {
	if w.sizing {
		w.n += 4
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
}

func (w *writer) u64(v uint64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *writer) raw(b []byte) {
	if w.sizing {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

func (w *writer) rawString(s string) {
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *writer) field64(tag uint8, v uint64) {
	if v == 0 {
		return
	}
	w.u8(tag)
	w.u64(v)
}

func (w *writer) fieldBytes(tag uint8, b []byte) {
	if len(b) == 0 {
		return
	}
	w.u8(tag)
	w.u32(int64(len(b)))
	w.raw(b)
}

func (w *writer) fieldString(tag uint8, s string) {
	if len(s) == 0 {
		return
	}
	w.u8(tag)
	w.u32(int64(len(s)))
	w.rawString(s)
}

// filler returns a writer appending to dst after growing it, at most
// once, to hold exactly n more bytes (the size a sizing pass measured).
func filler(dst []byte, n int) writer {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	return writer{buf: dst}
}

// reader decodes the wire format. Byte fields come back as views into the
// message (capacity-clipped, so appending to one can never overwrite the
// bytes after it); decoding never writes to the message.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) more() bool { return r.err == nil && r.pos < len(r.buf) }

func (r *reader) u8() uint8 {
	if r.pos+1 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *reader) u32() int {
	if r.pos+4 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return int(v)
}

func (r *reader) u64() uint64 {
	if r.pos+8 > len(r.buf) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// bytes returns the next length-prefixed field as a view into the message.
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil || n > len(r.buf)-r.pos {
		r.err = errTruncated
		return nil
	}
	v := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// count reads a u32 element count and rejects one the remaining bytes
// cannot hold (each element needs at least minBytes), so a hostile count
// can never force a giant allocation.
func (r *reader) count(minBytes int) int {
	n := r.u32()
	if r.err == nil && n > (len(r.buf)-r.pos)/minBytes {
		r.err = fmt.Errorf("marshal: element count %d exceeds message: %w", n, abi.EINVAL)
	}
	return n
}

var errTruncated = fmt.Errorf("marshal: truncated message: %w", abi.EINVAL)

// AppendArgs appends a syscall's argument frame to dst, performing the
// pointer translation step: the Buf payload (a user-space pointer on real
// hardware) is copied inline so the guest needs no access to host memory.
// dst grows at most once, to the exact frame size; callers pass a reused
// frame to encode without allocating.
func AppendArgs(dst []byte, a *kernel.Args) []byte {
	w := filler(dst, argsSize(a))
	encodeArgs(&w, a)
	return w.buf
}

// argsSize is the exact length of a's args frame.
func argsSize(a *kernel.Args) int {
	w := writer{sizing: true}
	encodeArgs(&w, a)
	return w.n
}

func encodeArgs(w *writer, a *kernel.Args) {
	w.u8(tagNr)
	w.u64(uint64(a.Nr))
	w.fieldString(tagPath, a.Path)
	w.fieldString(tagPath2, a.Path2)
	w.field64(tagFD, uint64(int64(a.FD)))
	w.field64(tagFD2, uint64(int64(a.FD2)))
	w.field64(tagFlags, uint64(a.Flags))
	w.field64(tagMode, uint64(a.Mode))
	w.fieldBytes(tagBuf, a.Buf)
	w.field64(tagSize, uint64(int64(a.Size)))
	w.field64(tagOff, uint64(a.Off))
	w.field64(tagWhence, uint64(int64(a.Whence)))
	w.field64(tagRequest, uint64(a.Request))
	w.fieldString(tagAddr, a.Addr)
	w.field64(tagFamily, uint64(int64(a.Family)))
	w.field64(tagSockType, uint64(int64(a.SockType)))
	w.field64(tagProto, uint64(int64(a.Proto)))
	w.field64(tagSig, uint64(int64(a.Sig)))
	w.field64(tagTargetPID, uint64(int64(a.TargetPID)))
	w.field64(tagUID, uint64(int64(a.UID)))
	w.field64(tagGID, uint64(int64(a.GID)))
	w.field64(tagVaddr, a.Vaddr)
	w.field64(tagPages, uint64(int64(a.Pages)))
	w.field64(tagProt, uint64(int64(a.Prot)))
	w.fieldString(tagTag, a.Tag)
	for _, s := range a.Argv {
		w.fieldString(tagArgv, s)
	}
	readStyle := a.Nr == abi.SysReadv || a.Nr == abi.SysPreadv
	for _, seg := range a.Iov {
		if readStyle {
			w.u8(tagIovSpan)
			w.u64(uint64(len(seg)))
		} else {
			w.fieldBytes(tagIov, seg)
		}
	}
}

// Decoder decodes every frame kind of the data channel: the requests
// (args, batch, sockop, grant, chain and binder frames) and the replies
// (a result, a result batch, a chain result). Byte fields come back as
// views into the decoded frame, valid while it is; read-style Iov spans
// become fresh zeroed scratch segments. A decoder keeps the strings of
// its previous decodes: paths, second paths, addresses and binder service
// names. A string whose bytes equal one kept is returned as that string,
// not copied again, so a transport that decodes the same few strings
// over and over (two apps' files through one pooled frame, a client
// cycling through its peers) allocates none. The kept strings are
// copies, never views into a frame, and only a decode that carries a
// string replaces one. Batches, chains, result vectors and grant
// descriptors decode into storage the decoder keeps, grown to the longest
// it has decoded, so a reused decoder stops allocating; what one of them
// returns is valid until the next decode of any of the four. The zero
// value is ready; a Decoder must not be used concurrently.
type Decoder struct {
	// kept are the kept strings, replaced round-robin from next.
	kept [keptStrings]string
	next int
	// args holds a decoded batch's calls or chain's links; calls and
	// links point into it.
	args  []kernel.Args
	calls []*kernel.Args
	links []ChainLink
	// results holds a decoded result batch or chain result.
	results []kernel.Result
	// sg is GrantCall's descriptor.
	sg SGDescriptor
}

// keptStrings is how many strings a Decoder keeps: a few files' paths,
// a client's peers and a binder service at once.
const keptStrings = 8

// keep returns b as a string: the kept one when the bytes are equal
// (comparing does not allocate), else a copy, which replaces the oldest.
func (d *Decoder) keep(b []byte) string {
	for _, s := range d.kept {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.kept[d.next] = s
	d.next = (d.next + 1) % keptStrings
	return s
}

// Args reverses AppendArgs into a, which it resets first.
func (d *Decoder) Args(b []byte, a *kernel.Args) error {
	*a = kernel.Args{}
	r := &reader{buf: b}
	for r.more() {
		switch tag := r.u8(); tag {
		case tagNr:
			a.Nr = abi.SyscallNr(r.u64())
		case tagPath:
			a.Path = d.keep(r.bytes())
		case tagPath2:
			a.Path2 = d.keep(r.bytes())
		case tagFD:
			a.FD = int(int64(r.u64()))
		case tagFD2:
			a.FD2 = int(int64(r.u64()))
		case tagFlags:
			a.Flags = abi.OpenFlag(r.u64())
		case tagMode:
			a.Mode = abi.FileMode(r.u64())
		case tagBuf:
			a.Buf = r.bytes()
		case tagSize:
			a.Size = int(int64(r.u64()))
		case tagOff:
			a.Off = int64(r.u64())
		case tagWhence:
			a.Whence = int(int64(r.u64()))
		case tagRequest:
			a.Request = uint32(r.u64())
		case tagAddr:
			a.Addr = d.keep(r.bytes())
		case tagFamily:
			a.Family = netstack.Family(r.u64())
		case tagSockType:
			a.SockType = netstack.SockType(r.u64())
		case tagProto:
			a.Proto = int(int64(r.u64()))
		case tagSig:
			a.Sig = int(int64(r.u64()))
		case tagTargetPID:
			a.TargetPID = int(int64(r.u64()))
		case tagUID:
			a.UID = int(int64(r.u64()))
		case tagGID:
			a.GID = int(int64(r.u64()))
		case tagVaddr:
			a.Vaddr = r.u64()
		case tagPages:
			a.Pages = int(int64(r.u64()))
		case tagProt:
			a.Prot = int(int64(r.u64()))
		case tagTag:
			a.Tag = string(r.bytes())
		case tagArgv:
			a.Argv = append(a.Argv, string(r.bytes()))
		case tagIov:
			a.Iov = append(a.Iov, r.bytes())
		case tagIovSpan:
			// Scratch allocation is bounded so a hostile span cannot
			// force a giant allocation during decode (16 MiB is far
			// beyond any vector the kernel accepts).
			n := int(r.u64())
			if r.err == nil && (n < 0 || n > 1<<24) {
				return fmt.Errorf("marshal: bad iov span %d: %w", n, abi.EINVAL)
			}
			if r.err == nil {
				a.Iov = append(a.Iov, make([]byte, n))
			}
		default:
			return fmt.Errorf("marshal: unknown args tag %d: %w", tag, abi.EINVAL)
		}
	}
	return r.err
}

// AppendArgsBatch appends a frame carrying several calls, so a
// coalesced-write flush (or any multi-call exchange) costs a single
// round-trip: a count followed by each call's args frame,
// length-prefixed.
func AppendArgsBatch(dst []byte, calls []*kernel.Args) []byte {
	sz := writer{sizing: true}
	encodeArgsBatch(&sz, calls)
	w := filler(dst, sz.n)
	encodeArgsBatch(&w, calls)
	return w.buf
}

func encodeArgsBatch(w *writer, calls []*kernel.Args) {
	w.u32(int64(len(calls)))
	for _, a := range calls {
		w.u32(int64(argsSize(a)))
		encodeArgs(w, a)
	}
}

// argsFor returns n call slots of the decoder's storage.
func (d *Decoder) argsFor(n int) []kernel.Args {
	if cap(d.args) < n {
		d.args = make([]kernel.Args, n)
	}
	return d.args[:n]
}

// ArgsBatch reverses AppendArgsBatch into the decoder's storage.
func (d *Decoder) ArgsBatch(b []byte) ([]*kernel.Args, error) {
	r := &reader{buf: b}
	n := r.count(4)
	if r.err != nil {
		return nil, r.err
	}
	store := d.argsFor(n)
	if cap(d.calls) < n {
		d.calls = make([]*kernel.Args, n)
	}
	calls := d.calls[:n]
	for i := range calls {
		blob := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		if err := d.Args(blob, &store[i]); err != nil {
			return nil, err
		}
		calls[i] = &store[i]
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after args batch: %w", len(b)-r.pos, abi.EINVAL)
	}
	return calls, nil
}

// AppendResultBatch appends the per-call results of a batched exchange.
func AppendResultBatch(dst []byte, results []kernel.Result) []byte {
	sz := writer{sizing: true}
	sz.u32(int64(len(results)))
	encodeResults(&sz, results)
	w := filler(dst, sz.n)
	w.u32(int64(len(results)))
	encodeResults(&w, results)
	return w.buf
}

// encodeResults emits a length-prefixed result vector (the body of both
// the batch and the chain reply).
func encodeResults(w *writer, results []kernel.Result) {
	for _, res := range results {
		e := resultErrOf(res)
		w.u32(int64(resultSize(res, e)))
		encodeResult(w, res, e)
	}
}

// ResultBatch reverses AppendResultBatch into the decoder's storage.
func (d *Decoder) ResultBatch(b []byte) ([]kernel.Result, error) {
	r := &reader{buf: b}
	n := r.count(4)
	if r.err != nil {
		return nil, r.err
	}
	results, err := d.resultVector(r, n)
	if err != nil {
		return nil, err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after result batch: %w", len(b)-r.pos, abi.EINVAL)
	}
	return results, nil
}

// resultVector decodes n length-prefixed results into the decoder's
// storage.
func (d *Decoder) resultVector(r *reader, n int) ([]kernel.Result, error) {
	if cap(d.results) < n {
		d.results = make([]kernel.Result, n)
	}
	results := d.results[:n]
	for i := range results {
		blob := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		res, err := d.Result(blob)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// resultErr is a result's error in wire form: a matchable errno, or the
// text of any other error. Resolving it once keeps Error() out of the
// sizing pass.
type resultErr struct {
	isErrno bool
	errno   abi.Errno
	text    string
}

func resultErrOf(res kernel.Result) resultErr {
	// A bare errno, the common case, needs no errors.As: its target would
	// move to the heap on every error result.
	switch err := res.Err.(type) {
	case nil:
		return resultErr{}
	case abi.Errno:
		return resultErr{isErrno: true, errno: err}
	}
	var errno abi.Errno
	if errors.As(res.Err, &errno) {
		return resultErr{isErrno: true, errno: errno}
	}
	return resultErr{text: res.Err.Error()}
}

// AppendResult appends a syscall result frame for the return trip; the
// guest handler appends into a reused reply frame.
func AppendResult(dst []byte, res kernel.Result) []byte {
	e := resultErrOf(res)
	w := filler(dst, resultSize(res, e))
	encodeResult(&w, res, e)
	return w.buf
}

// resultSize is the exact length of a result frame.
func resultSize(res kernel.Result, e resultErr) int {
	w := writer{sizing: true}
	encodeResult(&w, res, e)
	return w.n
}

func encodeResult(w *writer, res kernel.Result, e resultErr) {
	w.u8(tagRet)
	w.u64(uint64(res.Ret))
	w.fieldBytes(tagData, res.Data)
	w.field64(tagResFD, uint64(int64(res.FD)))
	if e.isErrno {
		w.u8(tagErrno)
		w.u64(uint64(int64(e.errno)))
	} else {
		w.fieldString(tagErrText, e.text)
	}
}

// Result reverses AppendResult. Data is a view into b; callers that keep
// it past the frame's lifetime copy it. Errno errors survive the trip
// matchably (errors.Is); other errors degrade to EIO with text.
func (d *Decoder) Result(b []byte) (kernel.Result, error) {
	var res kernel.Result
	r := &reader{buf: b}
	for r.more() {
		switch tag := r.u8(); tag {
		case tagRet:
			res.Ret = int64(r.u64())
		case tagData:
			res.Data = r.bytes()
		case tagResFD:
			res.FD = int(int64(r.u64()))
		case tagErrno:
			res.Err = abi.Errno(int64(r.u64()))
		case tagErrText:
			res.Err = fmt.Errorf("%s: %w", r.bytes(), abi.EIO)
		default:
			return kernel.Result{}, fmt.Errorf("marshal: unknown result tag %d: %w", tag, abi.EINVAL)
		}
	}
	if r.err != nil {
		return kernel.Result{}, r.err
	}
	return res, nil
}
