package cache

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
)

// Blob framing. Every entry persisted on disk or shipped over the blob
// protocol travels inside a self-verifying frame:
//
//	magic   "glcb1\n"            (6 bytes)
//	rawLen  uint64 little-endian (decompressed payload length)
//	compLen uint64 little-endian (compressed payload length)
//	sum     sha256(compressed)   (32 bytes)
//	payload flate(entry wire bytes, preset dict frameDict), compLen bytes
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
	frameMagic  = "glcb1\n"
	frameHeader = len(frameMagic) + 8 + 8 + sha256.Size

	// maxFrameBytes bounds what deframeBlob will touch: a frame advertising
	// more is treated as corrupt rather than allocated. Far above any real
	// entry (the largest observed entries are single-digit MB).
	maxFrameBytes = 256 << 20
)

// frameBlob wraps raw entry bytes in the compressed, checksummed wire
// frame. It never fails: flate over a byte slice cannot error.
func frameBlob(raw []byte) []byte {
	var comp bytes.Buffer
	zw, _ := flate.NewWriterDict(&comp, flate.BestCompression, []byte(frameDict))
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
	zr := flate.NewReaderDict(bytes.NewReader(comp), []byte(frameDict))
	defer zr.Close()
	// Inflate straight into a buffer of the advertised length, then read
	// one byte past it: the stream must end exactly there, so a payload
	// longer than declared is caught, not silently truncated.
	raw = make([]byte, rawLen)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, false
	}
	var past [1]byte
	if _, err := io.ReadFull(zr, past[:]); err != io.EOF {
		return nil, false
	}
	return raw, true
}

// isFramed reports whether b begins with the frame magic (used to keep
// reading entries written before compression existed: those decode as bare
// JSON).
func isFramed(b []byte) bool {
	return len(b) >= len(frameMagic) && string(b[:len(frameMagic)]) == frameMagic
}
