package server

import (
	"strconv"

	"golclint/internal/cache"
)

// flight is one in-progress computation that concurrent identical requests
// share.
type flight struct {
	done chan struct{}
	body []byte
}

// requestKey canonicalizes a request for coalescing: every field streams
// into one SHA-256, maps in sorted key order with their sizes, and every
// component length-prefixed as cache.KeyHasher does, so two requests with
// the same content hash identically regardless of construction order. It
// hashes the request in place: serializing a whole request only to hash
// it had cost a copy of every source on every request, memo repeats
// included. The hash keeps the in-flight table's keys small even for
// multi-megabyte requests.
func requestKey(req *CheckRequest) string {
	h := cache.NewKeyHasher("check-request", "")
	files := func(m map[string]string) {
		h.Component(strconv.Itoa(len(m)))
		for _, n := range sortedNames(m) {
			h.Component(n)
			h.Component(m[n])
		}
	}
	files(req.Files)
	h.Component(strconv.Itoa(len(req.Modules)))
	for _, n := range sortedNames(req.Modules) {
		h.Component(n)
		files(req.Modules[n])
	}
	files(req.Headers)
	h.Component(req.Flags)
	h.Component(strconv.Itoa(req.Jobs))
	h.Component(strconv.FormatBool(req.Explain))
	h.Component(strconv.FormatBool(req.Validate))
	h.Component(strconv.Itoa(req.Max))
	return h.Sum()
}

// coalesce runs compute for key at most once across concurrent callers
// (singleflight): the first caller becomes the leader and computes, later
// callers with the same key block and then share the leader's bytes
// verbatim. Coalescing spans only the in-flight window — a request arriving
// after completion computes afresh (and typically replays from the resident
// cache instead). The returned bool reports follower-hood.
func (s *Server) coalesce(key string, compute func() []byte) ([]byte, bool) {
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.body, true
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	defer func() {
		// On the leader's way out — including a panic unwind, where body
		// stays nil and followers answer 500 — retire the flight and wake
		// followers.
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}()
	f.body = compute()
	return f.body, false
}
