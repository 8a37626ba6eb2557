package cache

// Hooks for the tests in package cache_test, which check real entries and
// so import packages that import this one.
var (
	EncodeEntry = encodeEntry
	FrameDict   = frameDict
)
