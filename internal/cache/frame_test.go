package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
		got, ok := deframeBlob(b)
		if !ok {
			t.Fatalf("round trip failed for %d raw bytes", len(raw))
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip changed payload: %d bytes in, %d out", len(raw), len(got))
		}
	}
}

// Frame bytes are frozen: a store written by an earlier build of the same
// frame format must keep hitting, so these digests change only with the
// format (the magic and the dictionary). Each frame is built twice to show
// framing keeps no state from one frame to the next.
func TestFramePinned(t *testing.T) {
	key := Key("v1", "", map[string]string{"a.c": "int x;"})
	entry, err := encodeEntry(key, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		raw  []byte
		want string
	}{
		{entry, "66a513e6510bc109a137e7b1d9dca62b34a85540b03c87653372e0f32d1a1d94"},
		{nil, "7375929f02ff73467a0455b33e92c08883566dbb94e664b4b9691d66e56d544d"},
		{bytes.Repeat([]byte("abcdefgh"), 1<<12), "62e5cdf28dccf06823d4c3197a411e97f7e9a496476486b037aea6f1a0dc2e04"},
	} {
		for rep := 0; rep < 2; rep++ {
			if got := fmt.Sprintf("%x", sha256.Sum256(frameBlob(c.raw))); got != c.want {
				t.Errorf("frame %d (build %d): sha256 %s, want %s", i, rep, got, c.want)
			}
		}
	}
}

func TestFrameCompresses(t *testing.T) {
	// Cache records are highly repetitive. The frame must beat the raw
	// size on anything resembling a real entry.
	raw := bytes.Repeat([]byte(`{"code":"leak","pos":{"file":"m.c","line":9}}`), 200)
	b := frameBlob(raw)
	if len(b) >= len(raw) {
		t.Errorf("framed %d bytes >= raw %d bytes", len(b), len(raw))
	}
}

// corruptFrames returns raw's good frame and malformed variants of it,
// each of which must deframe to a miss.
func corruptFrames(raw []byte) (good []byte, cases map[string][]byte) {
	good = frameBlob(raw)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases = map[string][]byte{
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
	return good, cases
}

// Every malformed frame must deframe to a miss — never a panic, never a
// partial payload.
func TestDeframeRejectsCorruption(t *testing.T) {
	raw := []byte(`{"schema":"golclint-cache/v1","key":"abc"}`)
	good, cases := corruptFrames(raw)
	for name, b := range cases {
		if got, ok := deframeBlob(b); ok {
			t.Errorf("%s: deframed corrupt blob to %d bytes", name, len(got))
		}
	}

	if got, ok := deframeBlob(good); !ok || !bytes.Equal(got, raw) {
		t.Fatal("control: good frame failed to deframe")
	}
}

// failingFrames names the corrupt frames that fail inside the inflater
// itself (not in the header or checksum checks), so a pooled reader is left
// mid-stream or in an error state.
var failingFrames = []string{"not-flate", "truncated-flate", "raw-len-high"}

// Inflaters are pooled: a reader that just failed on a corrupt payload
// must, once Reset, inflate the next good frame exactly.
func TestDeframeAfterFailedInflate(t *testing.T) {
	raw := []byte(`{"schema":"golclint-cache/v1","key":"abc"}`)
	good, cases := corruptFrames(raw)
	for _, name := range failingFrames {
		if _, ok := deframeBlob(cases[name]); ok {
			t.Fatalf("%s: corrupt frame deframed", name)
		}
		if got, ok := deframeBlob(good); !ok || !bytes.Equal(got, raw) {
			t.Errorf("%s: good frame after it deframed to %q, %v", name, got, ok)
		}
	}
}
