package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"schema":"golclint-cache/v1"}` + "\n"),
		bytes.Repeat([]byte("abcdefgh"), 1<<12),
	} {
		b := frameBlob(raw)
		if !isFramed(b) {
			t.Fatalf("frameBlob output not recognized as framed")
		}
		got, ok := deframeBlob(b)
		if !ok {
			t.Fatalf("round trip failed for %d raw bytes", len(raw))
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip changed payload: %d bytes in, %d out", len(raw), len(got))
		}
	}
}

func TestFrameCompresses(t *testing.T) {
	// Cache entries are JSON: highly repetitive. The frame must beat the raw
	// size on anything resembling a real entry.
	raw := bytes.Repeat([]byte(`{"code":"leak","pos":{"file":"m.c","line":9}}`), 200)
	b := frameBlob(raw)
	if len(b) >= len(raw) {
		t.Errorf("framed %d bytes >= raw %d bytes", len(b), len(raw))
	}
}

// Every malformed frame must deframe to a miss — never a panic, never a
// partial payload.
func TestDeframeRejectsCorruption(t *testing.T) {
	raw := []byte(`{"schema":"golclint-cache/v1","key":"abc"}`)
	good := frameBlob(raw)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:frameHeader-1],
		"bad-magic":   mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"no-payload":  good[:frameHeader],
		"extra-bytes": append(append([]byte(nil), good...), 0x00),
		"flip-payload": mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}),
		"flip-checksum": mutate(func(b []byte) []byte {
			b[len(frameMagic)+16] ^= 0x01
			return b
		}),
		"raw-len-low": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], uint64(len(raw)-1))
			return b
		}),
		"raw-len-high": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], uint64(len(raw)+1))
			return b
		}),
		"raw-len-huge": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], maxFrameBytes+1)
			return b
		}),
		"comp-len-huge": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], maxFrameBytes+1)
			return b
		}),
		"not-flate": func() []byte {
			// Valid header and checksum over a payload that is not a
			// flate stream (rawLen disagreeing with whatever it inflates
			// to also rejects it).
			junk := []byte("definitely not flate data")
			b := frameBlob(raw)[:frameHeader]
			binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], uint64(len(junk)))
			sum := sha256.Sum256(junk)
			copy(b[len(frameMagic)+16:], sum[:])
			return append(b, junk...)
		}(),
		"truncated-flate": func() []byte {
			// Valid header and checksum over a flate stream cut short of
			// its final block: the full payload never arrives.
			b := frameBlob(raw)
			comp := b[frameHeader : len(b)-2]
			binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], uint64(len(comp)))
			sum := sha256.Sum256(comp)
			copy(b[len(frameMagic)+16:], sum[:])
			return b[:frameHeader+len(comp)]
		}(),
	}
	for name, b := range cases {
		if got, ok := deframeBlob(b); ok {
			t.Errorf("%s: deframed corrupt blob to %d bytes", name, len(got))
		}
	}

	if got, ok := deframeBlob(good); !ok || !bytes.Equal(got, raw) {
		t.Fatal("control: good frame failed to deframe")
	}
}
