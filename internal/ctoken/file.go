package ctoken

import (
	"strings"
	"sync"
	"sync/atomic"
)

// FileID names a source file by its index in a process-wide, append-only
// table of file names, so a Pos carries no pointer: tokens, AST nodes and
// checker values are stored and copied without write barriers and the
// garbage collector never scans them for file names. ID 0 is the empty
// name. IDs follow first-seen order, which depends on scheduling, so
// nothing may order or hash by an ID; use the name.
type FileID uint32

// fileTable is the process-wide name table. Lookups are lock-free: ids is
// a sync.Map and names an atomically published snapshot. Inserts take mu,
// append to names (the snapshot a reader holds covers only indices that
// are never written again) and publish the longer slice.
var fileTable struct {
	mu    sync.Mutex
	ids   sync.Map // string -> FileID
	names atomic.Pointer[[]string]
}

func init() {
	names := []string{""}
	fileTable.names.Store(&names)
	fileTable.ids.Store("", FileID(0))
}

// FileOf returns the ID of the named file, adding the name to the table
// on first sight. The table keeps its own copy of the name: a line
// marker's name is a slice of a whole expanded source, which a stored
// slice would keep alive for the life of the process.
func FileOf(name string) FileID {
	if id, ok := fileTable.ids.Load(name); ok {
		return id.(FileID)
	}
	fileTable.mu.Lock()
	defer fileTable.mu.Unlock()
	if id, ok := fileTable.ids.Load(name); ok {
		return id.(FileID)
	}
	names := *fileTable.names.Load()
	id := FileID(len(names))
	name = strings.Clone(name)
	names = append(names, name)
	fileTable.names.Store(&names)
	fileTable.ids.Store(name, id)
	return id
}

// String returns the file's name ("" for an ID FileOf never returned).
func (id FileID) String() string {
	names := *fileTable.names.Load()
	if int(id) >= len(names) {
		return ""
	}
	return names[id]
}
