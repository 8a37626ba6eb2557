// Package core implements the paper's contribution: annotation-based,
// modular static checking of dynamic memory errors. Each function body is
// analyzed independently in a single forward pass (no fixpoint iteration,
// per §2: loops are modeled as executing zero or one times). Three dataflow
// values are tracked per reference — definition state, null state, and
// allocation state (§5) — together with may-alias sets, and constraints
// implied by interface annotations are checked at entry, call sites,
// assignments, and exit points.
package core

import (
	"golclint/internal/annot"
	"golclint/internal/ctoken"
	"golclint/internal/ctypes"
)

// DefState is the definition state of a reference, ordered from weakest to
// strongest; merges take the weakest (§5: "Definition states are combined
// using the weakest assumption").
type DefState uint8

// Definition states.
const (
	DefUndefined DefState = iota // no value assigned
	DefAllocated                 // pointer valid, pointee undefined (malloc/out)
	DefPartial                   // some reachable storage defined
	DefDefined                   // completely defined
)

var defNames = [...]string{
	DefUndefined: "undefined", DefAllocated: "allocated",
	DefPartial: "partially-defined", DefDefined: "defined",
}

// String returns the paper's name for the state.
func (d DefState) String() string {
	if int(d) >= len(defNames) {
		return ""
	}
	return defNames[d]
}

// MergeDef combines definition states at a confluence point.
func MergeDef(a, b DefState) DefState {
	if a < b {
		return a
	}
	return b
}

// NullState is the null state of a reference.
type NullState uint8

// Null states.
const (
	NullUnknown NullState = iota
	NullNo                // definitely not null
	NullMaybe             // possibly null
	NullYes               // definitely null
	NullError             // error marker (suppresses cascades)
)

var nullNames = [...]string{
	NullUnknown: "unknown", NullNo: "not-null", NullMaybe: "possibly-null",
	NullYes: "definitely-null", NullError: "error",
}

// String returns a readable name for the state.
func (n NullState) String() string {
	if int(n) >= len(nullNames) {
		return ""
	}
	return nullNames[n]
}

// MergeNull combines null states at a confluence point.
func MergeNull(a, b NullState) NullState {
	if a == b {
		return a
	}
	if a == NullError || b == NullError {
		return NullError
	}
	if a == NullUnknown {
		return b
	}
	if b == NullUnknown {
		return a
	}
	// Differing definite states admit the possibility of null.
	return NullMaybe
}

// AllocState is the allocation state of a reference (§5: "corresponding to
// the allocation annotation").
type AllocState uint8

// Allocation states.
const (
	AllocUnknown   AllocState = iota
	AllocOnly                 // sole reference; obligation to release
	AllocOwned                // owns storage shared by dependents
	AllocKeep                 // keep parameter (callee view)
	AllocKept                 // obligation satisfied; still usable
	AllocTemp                 // borrowed; may not release or capture
	AllocDependent            // shares owned storage; may not release
	AllocShared               // arbitrarily shared (GC); never released
	AllocStatic               // static/stack storage; never released
	AllocDead                 // released or transferred; unusable
	AllocError                // error marker after a confluence anomaly
)

var allocNames = [...]string{
	AllocUnknown: "unknown", AllocOnly: "only", AllocOwned: "owned",
	AllocKeep: "keep", AllocKept: "kept", AllocTemp: "temp",
	AllocDependent: "dependent", AllocShared: "shared",
	AllocStatic: "static", AllocDead: "dead", AllocError: "error",
}

// String returns the paper's name for the state.
func (a AllocState) String() string {
	if int(a) >= len(allocNames) {
		return ""
	}
	return allocNames[a]
}

// Owning reports whether the state carries an obligation to release.
func (a AllocState) Owning() bool { return a == AllocOnly || a == AllocOwned }

// Live reports whether storage in this state may still be used.
func (a AllocState) Live() bool { return a != AllocDead && a != AllocError && a != AllocUnknown }

// allocRank orders non-owning live states from most to least constrained
// for silent same-group merging; zero means the state is not in the group.
var allocRank = [...]int8{
	AllocKeep: 1, AllocKept: 2, AllocTemp: 3, AllocStatic: 4,
	AllocDependent: 5, AllocShared: 6, AllocError: 0,
}

// MergeAlloc combines allocation states at a confluence point. ok is false
// when the states are irreconcilable (one path released or transferred the
// obligation and the other did not) — the paper's confluence anomaly; the
// caller reports it and the result is AllocError.
func MergeAlloc(a, b AllocState) (AllocState, bool) {
	if a == b {
		return a, true
	}
	if a == AllocError || b == AllocError {
		return AllocError, true // already reported
	}
	if a == AllocUnknown {
		return b, true
	}
	if b == AllocUnknown {
		return a, true
	}
	// Same group merges silently to the weaker claim.
	if a.Owning() && b.Owning() {
		return AllocOwned, true
	}
	ra, rb := allocRank[a], allocRank[b]
	if ra != 0 && rb != 0 {
		if ra > rb {
			return a, true
		}
		return b, true
	}
	// Owning on one path, borrowed on the other: a local alias of owned
	// storage (the paper's point-7 merge in list_addh) — keep the
	// obligation silently. But owning vs kept means the obligation was
	// satisfied on only one path: a confluence anomaly.
	if a.Owning() || b.Owning() {
		other := a
		owner := b
		if a.Owning() {
			other, owner = b, a
		}
		if other == AllocKept || other == AllocDead {
			return AllocError, false
		}
		return owner, true
	}
	// live vs dead: released on only one path.
	return AllocError, false
}

// allocFromAnnots maps declared allocation annotations to the initial
// allocation state of a reference governed by them.
func allocFromAnnots(as annot.Set) AllocState {
	switch a, _ := as.InCategory(annot.CatAllocation); a {
	case annot.Only:
		return AllocOnly
	case annot.Keep:
		return AllocKeep
	case annot.Temp:
		return AllocTemp
	case annot.Owned:
		return AllocOwned
	case annot.Dependent:
		return AllocDependent
	case annot.Shared:
		return AllocShared
	case annot.NewRef:
		// A fresh reference carries an obligation to release it through a
		// killref parameter — the same discipline as only storage.
		return AllocOnly
	case annot.KillRef:
		return AllocOnly
	case annot.TempRef, annot.RefCounted:
		return AllocTemp
	}
	return AllocUnknown
}

// nullFromAnnots maps declared nullness annotations to the initial null
// state.
func nullFromAnnots(as annot.Set) NullState {
	switch a, _ := as.InCategory(annot.CatNullness); a {
	case annot.Null:
		return NullMaybe
	case annot.RelNull:
		// relnull: assumed non-null when used, assignable to null.
		return NullNo
	default:
		return NullNo
	}
}

// defFromAnnots maps declared definition annotations to the initial
// definition state.
func defFromAnnots(as annot.Set) DefState {
	switch a, _ := as.InCategory(annot.CatDefinition); a {
	case annot.Out:
		return DefAllocated
	case annot.Partial:
		return DefPartial
	case annot.Undef:
		return DefUndefined
	default:
		return DefDefined
	}
}

// refState is the dataflow value for one reference.
type refState struct {
	def   DefState
	null  NullState
	alloc AllocState

	// baseline is the definition state this reference was created or last
	// rebound with; it decides whether untouched fields of a partially
	// defined object are assumed undefined (baseline allocated — fresh
	// storage) or defined (baseline defined — weakened by one child).
	baseline DefState

	// owner is the ownership generation of the store that may mutate this
	// state in place; every other store must copy it first (copy-on-write).
	owner uint32

	// declAnn and declPos record the governing annotations and where they
	// were declared (used in messages like "Storage gname becomes only").
	declAnn annot.Set
	declPos ctoken.Pos

	// typ is the reference's C type (nil when unknown).
	typ *ctypes.Type

	// external marks caller-visible references: parameter mirrors,
	// globals, and storage reachable from them.
	external bool

	// relaxed checking per relnull/reldef/partial.
	relNull bool
	relDef  bool

	// observer marks storage returned with the observer annotation: the
	// caller may not modify (or release) it.
	observer bool

	// implOnly marks references governed by an implicit only annotation
	// (pointer fields/globals/returns with no explicit allocation
	// annotation while implicit-only is enabled); they behave as only
	// sinks for transfer checking.
	implOnly bool

	// Event positions for secondary notes.
	nullPos  ctoken.Pos // where the reference may have become null
	allocPos ctoken.Pos // where the current allocation state arose
	deadPos  ctoken.Pos // where the reference died (release/transfer)
}

// store is the abstract state at a program point: a dense slice of
// dataflow values indexed by RefID plus a symmetric may-alias relation as
// per-ref sorted RefID sets.
//
// Stores are copy-on-write: clone() copies only the header, marking the
// backing arrays shared and revoking both stores' rights to mutate the
// refStates they point at (see clone). Writes privatize the backing array
// once (refsShared/aliasShared) and individual refStates on first touch
// (mut). Alias sets ([]RefID slices) are immutable once installed — every
// change builds a new slice — so they are shared freely between clones.
type store struct {
	fs      *fnState
	refs    []*refState // indexed by RefID; nil = absent
	aliases [][]RefID   // indexed by RefID; sorted; nil = none

	// refsShared/aliasShared mark the backing arrays as shared with
	// another store (set by clone, cleared by privatization).
	refsShared  bool
	aliasShared bool

	// owner is this store's current ownership generation: a refState with
	// a matching owner tag may be written in place.
	owner uint32

	// unreachable marks dead paths (after return/exit); merging with an
	// unreachable store yields (a clone of) the other store.
	unreachable bool
}

// clone returns an O(1) copy-on-write snapshot. Both the clone and the
// original receive fresh ownership generations: the refStates they now
// share carry the old tag, so the first write to any of them — from either
// store — copies it.
func (st *store) clone() *store {
	fs := st.fs
	fs.clones++
	c := fs.ar.allocStore()
	*c = *st
	c.owner = fs.newOwner()
	st.owner = fs.newOwner()
	c.refsShared, c.aliasShared = true, true
	st.refsShared, st.aliasShared = true, true
	return c
}

// ref returns the state for id, or nil when absent. The result must be
// treated as read-only unless it was just created by newRef or returned by
// mut on this store.
func (st *store) ref(id RefID) *refState {
	if id >= 0 && int(id) < len(st.refs) {
		return st.refs[id]
	}
	return nil
}

// growRefs privatizes (and, if needed, grows) the refs array so index id
// is writable.
func (st *store) growRefs(id RefID) {
	n := int(id) + 1
	if st.refsShared || n > cap(st.refs) {
		newCap := 2 * cap(st.refs)
		if newCap < n {
			newCap = n
		}
		if k := len(st.fs.in.keys); newCap < k {
			newCap = k
		}
		ln := len(st.refs)
		if ln < n {
			ln = n
		}
		nr := make([]*refState, ln, newCap)
		copy(nr, st.refs)
		st.refs = nr
		st.refsShared = false
	} else if n > len(st.refs) {
		// Owned array with spare capacity: the tail beyond len is still
		// zero (make zeroes to capacity and slots are only written below
		// len), so reslicing exposes only nils.
		st.refs = st.refs[:n]
	}
}

// setRef installs rs as the state for id.
func (st *store) setRef(id RefID, rs *refState) {
	if st.refsShared || int(id) >= len(st.refs) {
		st.growRefs(id)
	}
	st.refs[id] = rs
}

// newRef creates a fresh zeroed state for id, owned by this store (in-place
// writes are allowed until the store is cloned).
func (st *store) newRef(id RefID) *refState {
	rs := st.fs.ar.allocRef()
	rs.owner = st.owner
	st.setRef(id, rs)
	return rs
}

// mut returns a writable state for id, copying it first if this store does
// not own it (the copy-on-write fault path). Returns nil when id is absent.
// Any refState pointer fetched before a mutating call may be stale — use
// the pointer mut returns.
func (st *store) mut(id RefID) *refState {
	rs := st.ref(id)
	if rs == nil {
		return nil
	}
	if rs.owner == st.owner {
		return rs
	}
	st.fs.copied++
	n := st.fs.ar.allocRef()
	*n = *rs
	n.owner = st.owner
	st.setRef(id, n)
	return n
}

// delRef removes id's state.
func (st *store) delRef(id RefID) {
	if st.ref(id) == nil {
		return
	}
	if st.refsShared {
		st.growRefs(RefID(len(st.refs) - 1))
	}
	st.refs[id] = nil
}

// aliasSet returns the sorted may-alias set of id (not including id). The
// slice is immutable — callers must never modify it.
func (st *store) aliasSet(id RefID) []RefID {
	if id >= 0 && int(id) < len(st.aliases) {
		return st.aliases[id]
	}
	return nil
}

// setAliasSet installs set as id's alias set, privatizing the outer array.
func (st *store) setAliasSet(id RefID, set []RefID) {
	n := int(id) + 1
	if st.aliasShared || n > cap(st.aliases) {
		newCap := 2 * cap(st.aliases)
		if newCap < n {
			newCap = n
		}
		ln := len(st.aliases)
		if ln < n {
			ln = n
		}
		na := make([][]RefID, ln, newCap)
		copy(na, st.aliases)
		st.aliases = na
		st.aliasShared = false
	} else if n > len(st.aliases) {
		st.aliases = st.aliases[:n]
	}
	st.aliases[id] = set
}

// containsRef reports whether sorted set contains x.
func containsRef(set []RefID, x RefID) bool {
	for _, v := range set {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}

// insertSorted returns a new sorted slice with x inserted (set itself is
// never modified: alias slices are shared between stores).
func insertSorted(set []RefID, x RefID) []RefID {
	out := make([]RefID, 0, len(set)+1)
	i := 0
	for ; i < len(set) && set[i] < x; i++ {
		out = append(out, set[i])
	}
	out = append(out, x)
	out = append(out, set[i:]...)
	return out
}

// removeSorted returns set without x (set itself is never modified);
// returns set unchanged when x is absent and nil when the result is empty.
func removeSorted(set []RefID, x RefID) []RefID {
	if !containsRef(set, x) {
		return set
	}
	if len(set) == 1 {
		return nil
	}
	out := make([]RefID, 0, len(set)-1)
	for _, v := range set {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// addAlias records that a and b may refer to the same storage.
func (st *store) addAlias(a, b RefID) {
	if a == b || a == noRef || b == noRef {
		return
	}
	if !containsRef(st.aliasSet(a), b) {
		st.setAliasSet(a, insertSorted(st.aliasSet(a), b))
	}
	if !containsRef(st.aliasSet(b), a) {
		st.setAliasSet(b, insertSorted(st.aliasSet(b), a))
	}
}

// aliased reports whether a and b are recorded as may-aliases.
func (st *store) aliased(a, b RefID) bool {
	return containsRef(st.aliasSet(a), b)
}

// removeAlias removes the a–b edge.
func (st *store) removeAlias(a, b RefID) {
	st.setAliasSet(a, removeSorted(st.aliasSet(a), b))
	st.setAliasSet(b, removeSorted(st.aliasSet(b), a))
}

// dropAliases unbinds id from the alias relation (used when a reference
// is assigned a new value).
func (st *store) dropAliases(id RefID) {
	set := st.aliasSet(id)
	if set == nil {
		return
	}
	for _, x := range set {
		st.setAliasSet(x, removeSorted(st.aliasSet(x), id))
	}
	st.setAliasSet(id, nil)
}

// sortedAliases returns id's aliases ordered by key string (the order the
// old string-keyed store iterated them in); used only where the order is
// diagnostic-visible.
func (st *store) sortedAliases(id RefID) []RefID {
	set := st.aliasSet(id)
	if len(set) <= 1 {
		return set
	}
	in := st.fs.in
	out := make([]RefID, len(set))
	copy(out, set)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && in.keys[out[j]] < in.keys[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// confluence describes an allocation-state conflict found during a merge.
type confluence struct {
	id     RefID
	a, b   AllocState
	aState *refState
}

// mergeStores combines two branch states, consuming both: a and b lose
// their in-place-write rights (states they own may now be shared into the
// result), so callers must not keep using them except through the returned
// store. Conflicting allocation states are returned for the caller to
// report (the paper's confluence anomaly); the merged reference gets the
// error marker.
func mergeStores(a, b *store) (*store, []confluence) {
	// An unreachable input contributes nothing; the result is a clone (an
	// O(1) snapshot) of the other store, never the store itself — returning
	// it unchanged would alias a live branch store, and a later mutation
	// through the merge result would silently corrupt the branch.
	if a.unreachable {
		return b.clone(), nil
	}
	if b.unreachable {
		return a.clone(), nil
	}
	fs := a.fs
	// Revoke in-place-write rights from the inputs: one-sided refStates are
	// shared into out below, and a stale write through a or b must fault
	// into a copy rather than mutate what out sees.
	a.owner = fs.newOwner()
	b.owner = fs.newOwner()
	out := fs.ar.allocStore()
	out.fs = fs
	out.owner = fs.newOwner()
	var conflicts []confluence

	n := len(a.refs)
	if len(b.refs) > n {
		n = len(b.refs)
	}
	if n > 0 {
		out.growRefs(RefID(n - 1))
	}
	for i := 0; i < n; i++ {
		id := RefID(i)
		ra := a.ref(id)
		rb := b.ref(id)
		switch {
		case ra != nil && rb != nil:
			m := fs.ar.allocRef()
			*m = *ra
			m.owner = out.owner
			m.def = MergeDef(ra.def, rb.def)
			m.baseline = MergeDef(ra.baseline, rb.baseline)
			m.null = MergeNull(ra.null, rb.null)
			// A definitely-null reference holds no storage, hence no
			// obligation: its allocation state defers to the other path.
			switch {
			case ra.null == NullYes && rb.null != NullYes:
				m.alloc = rb.alloc
			case rb.null == NullYes && ra.null != NullYes:
				m.alloc = ra.alloc
			default:
				merged, ok := MergeAlloc(ra.alloc, rb.alloc)
				if !ok {
					conflicts = append(conflicts, confluence{id: id, a: ra.alloc, b: rb.alloc, aState: m})
				}
				m.alloc = merged
			}
			if m.null == NullMaybe {
				if ra.null == NullMaybe || ra.null == NullYes {
					m.nullPos = ra.nullPos
				} else {
					m.nullPos = rb.nullPos
				}
			}
			if rb.alloc == AllocDead && ra.alloc != AllocDead {
				m.deadPos = rb.deadPos
			}
			m.relNull = ra.relNull || rb.relNull
			m.relDef = ra.relDef || rb.relDef
			out.refs[id] = m
		case ra != nil:
			// Present on one path only: share the state (copy-on-write
			// protects it; the ownership revocation above protects us).
			out.refs[id] = ra
		case rb != nil:
			out.refs[id] = rb
		}
	}

	// May-alias union (§5: "The possible aliases at confluence points is
	// the union of the possible aliases on each branch"). The relation is
	// symmetric in both inputs, so a per-id union preserves symmetry.
	an := len(a.aliases)
	if len(b.aliases) > an {
		an = len(b.aliases)
	}
	if an > 0 {
		out.aliases = make([][]RefID, an)
		for i := 0; i < an; i++ {
			out.aliases[i] = unionSorted(a.aliasSet(RefID(i)), b.aliasSet(RefID(i)))
		}
	}
	return out, conflicts
}

// unionSorted returns the sorted union of two sorted sets, sharing an input
// slice when it already is the union.
func unionSorted(a, b []RefID) []RefID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	// Common case after a clone: identical sets.
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			return a
		}
	}
	out := make([]RefID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
