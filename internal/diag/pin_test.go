package diag

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestMarshalPinned pins the wire bytes of a diagnostic set with notes,
// witness paths and validation records. Cache entries hold these bytes, so
// however positions are represented in memory, the wire form may not move.
func TestMarshalPinned(t *testing.T) {
	ds := sampleDiags()
	ds[0].Prov = &Provenance{Ref: "p", Steps: []ProvStep{
		{Pos: ds[0].Notes[1].Pos, Kind: "entry", Msg: "checking function f"},
		{Pos: ds[0].Notes[0].Pos, Kind: "alloc", Msg: "fresh storage allocated"},
		{Kind: "path", Msg: "blocks 1 -> 3"},
		{Pos: ds[0].Pos, Kind: "release", Msg: "released by call to free"},
	}}
	ds[0].Validation = &Validation{Tag: Confirmed, Detail: "f(0) faults at mod1.c:10"}
	ds[1].Validation = &Validation{Tag: PathInfeasible}
	ds[len(ds)-1].Prov = &Provenance{Steps: []ProvStep{{Pos: ds[len(ds)-1].Pos, Kind: "null", Msg: "q may become null"}}}
	b, err := Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), "4bb08e3dc90ac9373c5c821106a22319ce136196b2cddd754837e72a574e85dd"; got != want {
		t.Errorf("sha256 of Marshal = %s, want %s", got, want)
	}
}
