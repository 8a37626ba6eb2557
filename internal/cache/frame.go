package cache

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sync"
)

// Blob framing. Every entry persisted on disk or shipped over the blob
// protocol travels inside a self-verifying frame:
//
//	magic   "glcb3\n"            (6 bytes)
//	rawLen  uint64 little-endian (decompressed payload length)
//	compLen uint64 little-endian (compressed payload length)
//	sum     sha256(compressed)   (32 bytes)
//	payload flate(entry record, preset dict frameDict), compLen bytes
//
// The payload is a raw DEFLATE stream primed with the frameDict preset
// dictionary (see frame_dict.go): cache entries are small and share most
// of their bytes with every other entry, which a per-entry compressor
// cannot exploit but a preset dictionary can.
//
// The checksum covers the compressed payload, so a frame corrupted
// anywhere — on disk, in a proxy, by a truncated read — is detected before
// any decompression happens. Deframing shares the cache's robustness
// contract: every malformed frame reads as a miss, never an error, so a
// hostile or broken blob server can only make runs slower, not wrong.
const (
	frameMagic  = "glcb3\n"
	frameHeader = len(frameMagic) + 8 + 8 + sha256.Size

	// maxFrameBytes bounds what deframeBlob will touch: a frame advertising
	// more is treated as corrupt rather than allocated. Far above any real
	// entry (the largest observed entries are single-digit MB).
	maxFrameBytes = 256 << 20
)

// frameDictBytes is frameDict as the byte slice the flate API takes,
// converted once rather than on every frame.
var frameDictBytes = []byte(frameDict)

// inflater is a reusable raw-DEFLATE reader over a reusable source. A
// fresh flate reader allocates its ~40 KB window and tables, which made
// reader construction the largest single allocation of a warm cache read.
// Pooled readers are Reset onto each frame's payload and the preset
// dictionary before every use, so no state (a failed inflate's error
// included) carries from one frame to the next. Writers are not pooled: a
// best-compression writer holds about 1 MB, which a pool would keep live
// between Puts, and the warm path rarely writes.
type inflater struct {
	src bytes.Reader
	zr  io.Reader
}

var inflaters = sync.Pool{New: func() any {
	f := &inflater{}
	f.zr = flate.NewReader(&f.src)
	return f
}}

// frameBlob wraps an entry record in the compressed, checksummed wire
// frame. It never fails: flate over a byte slice cannot error.
func frameBlob(raw []byte) []byte {
	var comp bytes.Buffer
	zw, _ := flate.NewWriterDict(&comp, flate.BestCompression, frameDictBytes)
	zw.Write(raw)
	zw.Close()

	out := make([]byte, 0, frameHeader+comp.Len())
	out = append(out, frameMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(raw)))
	out = binary.LittleEndian.AppendUint64(out, uint64(comp.Len()))
	sum := sha256.Sum256(comp.Bytes())
	out = append(out, sum[:]...)
	return append(out, comp.Bytes()...)
}

// deframeBlob unwraps a frame produced by frameBlob, verifying magic,
// lengths, and checksum before decompressing and the decompressed length
// after. Any mismatch returns ok=false; it never panics and never returns
// a partial payload.
func deframeBlob(b []byte) (raw []byte, ok bool) {
	if len(b) < frameHeader || string(b[:len(frameMagic)]) != frameMagic {
		return nil, false
	}
	rawLen := binary.LittleEndian.Uint64(b[len(frameMagic):])
	compLen := binary.LittleEndian.Uint64(b[len(frameMagic)+8:])
	if rawLen > maxFrameBytes || compLen > maxFrameBytes {
		return nil, false
	}
	sum := b[len(frameMagic)+16 : frameHeader]
	comp := b[frameHeader:]
	if uint64(len(comp)) != compLen {
		return nil, false
	}
	if sha256.Sum256(comp) != [sha256.Size]byte(sum) {
		return nil, false
	}
	f := inflaters.Get().(*inflater)
	defer func() {
		f.src.Reset(nil) // do not pin the caller's blob while pooled
		inflaters.Put(f)
	}()
	f.src.Reset(comp)
	f.zr.(flate.Resetter).Reset(&f.src, frameDictBytes)
	// Inflate straight into a buffer of the advertised length, then read
	// one byte past it: the stream must end exactly there, so a payload
	// longer than declared is caught, not silently truncated.
	raw = make([]byte, rawLen)
	if _, err := io.ReadFull(f.zr, raw); err != nil {
		return nil, false
	}
	var past [1]byte
	if _, err := io.ReadFull(f.zr, past[:]); err != io.EOF {
		return nil, false
	}
	return raw, true
}
