package binder_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/marshal"
)

// The driver dispatches decoded transactions; the /dev/binder ioctl
// argument and the bridge's session frame are marshal's formats. These
// tests check that what the callers encode is what a service sees.

// recorder registers svc on a fresh driver and returns it with the last
// transaction its handler saw (the payload copied, as the Handler
// contract asks of a service that keeps it).
func recorder(t *testing.T, svc string) (*binder.Driver, *binder.Transaction) {
	t.Helper()
	d := binder.NewDriver()
	seen := &binder.Transaction{}
	err := d.Register(svc, false, func(_ abi.Cred, code uint32, data []byte) ([]byte, error) {
		*seen = binder.Transaction{Service: svc, Code: code, Payload: bytes.Clone(data)}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, seen
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d, seen := recorder(t, "window")
	in := binder.Transaction{Service: "window", Code: 7, Payload: []byte("touch@12,88")}
	var dec marshal.Decoder
	txn, err := dec.BinderTxn(marshal.AppendBinderTxn(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Transact(abi.Cred{}, txn); err != nil {
		t.Fatal(err)
	}
	if seen.Code != in.Code || !bytes.Equal(seen.Payload, in.Payload) || txn.Service != in.Service {
		t.Fatalf("service saw %+v, want %+v", *seen, in)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	var dec marshal.Decoder
	f := func(name string, code uint32, payload []byte, oneway bool) bool {
		if len(name) > 60000 {
			name = name[:60000]
		}
		in := binder.Transaction{Service: name, Code: code, Payload: payload, Oneway: oneway}
		out, err := dec.BinderTxn(marshal.AppendBinderTxn(nil, in))
		if err != nil {
			return false
		}
		return out.Service == in.Service && out.Code == in.Code && bytes.Equal(out.Payload, in.Payload) && out.Oneway == in.Oneway
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	var dec marshal.Decoder
	if _, err := dec.BinderTxn([]byte{9}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("short buffer: %v, want EINVAL", err)
	}
	// Name length claims more bytes than present.
	if _, err := dec.BinderTxn([]byte{0xFF, 0xFF, 'x'}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("truncated: %v, want EINVAL", err)
	}
	// A oneway magic with nothing after it.
	if _, err := dec.BinderTxn([]byte{0xFF, 0xFE, 'O', '1'}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("bare oneway magic: %v, want EINVAL", err)
	}
}

func TestOnewayEncodeDecodeRoundTrip(t *testing.T) {
	d, seen := recorder(t, "media")
	in := binder.Transaction{Service: "media", Code: 9, Payload: []byte("frame"), Oneway: true}
	var dec marshal.Decoder
	out, err := dec.BinderTxn(marshal.AppendBinderTxn(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Oneway || out.Service != in.Service || out.Code != in.Code || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if reply, err := d.Transact(abi.Cred{}, out); reply != nil || err != nil || !bytes.Equal(seen.Payload, in.Payload) {
		t.Fatalf("oneway dispatch: (%q, %v), service saw %+v", reply, err, *seen)
	}
	// The synchronous encoding stays byte-identical to the flat v1
	// format: it starts with the name length, no magic prefix.
	sync := marshal.AppendBinderTxn(nil, binder.Transaction{Service: "media", Code: 9, Payload: []byte("frame")})
	if binary.LittleEndian.Uint16(sync) != uint16(len("media")) {
		t.Fatalf("sync encoding starts %x, want the name length", sync[:2])
	}
	if len(sync) != 2+len("media")+4+len("frame") {
		t.Fatalf("sync encoding is %d bytes, want flat v1 length", len(sync))
	}
}

func TestSessionFrameRoundTrip(t *testing.T) {
	d, seen := recorder(t, "location")
	sid, err := d.OpenSession("location")
	if err != nil {
		t.Fatal(err)
	}
	in := marshal.BinderSession{Session: sid, Code: 3, Payload: []byte("pinned"), Oneway: true}
	enc := marshal.AppendBinderSession(nil, in)
	if !marshal.IsBinderCall(enc) {
		t.Fatal("encoded frame lost its envelope")
	}
	var dec marshal.Decoder
	out, err := dec.BinderCall(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != marshal.BinderOnSession || out.Session != in.Session || out.Txn.Code != in.Code ||
		out.Txn.Oneway != in.Oneway || !bytes.Equal(out.Txn.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if _, err := d.TransactSession(abi.Cred{}, out.Session, out.Txn.Code, out.Txn.Payload, out.Txn.Oneway); err != nil {
		t.Fatal(err)
	}
	if seen.Code != in.Code || !bytes.Equal(seen.Payload, in.Payload) {
		t.Fatalf("service saw %+v", *seen)
	}
}

func TestSessionFrameMalformed(t *testing.T) {
	var dec marshal.Decoder
	if _, err := dec.BinderCall([]byte("not a frame")); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("foreign bytes: %v, want EINVAL", err)
	}
	frame := marshal.AppendBinderSession(nil, marshal.BinderSession{Session: 1})
	if _, err := dec.BinderCall(frame[:len(frame)-1]); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("truncated frame: %v, want EINVAL", err)
	}
	// An envelope around a flat transaction is a call by name, never a
	// session call; nor is one whose 168-byte service name makes the flat
	// bytes start with the envelope's own magic.
	for _, name := range []string{"location", strings.Repeat("s", 0xA8)} {
		flat := marshal.AppendBinderTxn(nil, binder.Transaction{Service: name, Code: 1, Payload: []byte("12345")})
		c, err := dec.BinderCall(marshal.AppendBinderFlat(nil, flat))
		if err != nil || c.Kind != marshal.BinderByName || c.Txn.Service != name || string(c.Txn.Payload) != "12345" {
			t.Fatalf("envelope around a flat transaction to a %d-byte name: %+v, %v", len(name), c, err)
		}
	}
	// The flat format reserves the extended formats' prefix, so no
	// transaction an app sends can pose as another body.
	if _, err := dec.BinderTxn([]byte{0xFF, 0xFE, 'S', '1', 0, 0, 0, 0}); !errors.Is(err, abi.EINVAL) {
		t.Fatalf("flat transaction with the reserved prefix: %v, want EINVAL", err)
	}
	// A session frame sent as an ioctl argument is not a flat
	// transaction.
	if _, err := dec.BinderTxn(marshal.AppendBinderSession(nil, marshal.BinderSession{Session: 1, Payload: []byte("x")})); err == nil {
		t.Fatal("session frame decoded as a flat transaction")
	}
}
