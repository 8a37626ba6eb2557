package cli

import (
	"fmt"
	"testing"
)

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i, n int
	}{
		{"0/1", 0, 1}, {"0/2", 0, 2}, {"3/4", 3, 4}, {"7/8", 7, 8},
	} {
		i, n, err := ParseShard(tc.in)
		if err != nil || i != tc.i || n != tc.n {
			t.Errorf("ParseShard(%q) = %d, %d, %v", tc.in, i, n, err)
		}
	}
	for _, bad := range []string{"", "1", "1/", "/2", "2/2", "-1/2", "0/0", "a/b", "1/2/3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// The partition is total, disjoint, and stable: every name lands in
// exactly one shard, and the assignment never changes run to run.
func TestShardOfPartitions(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		counts := make([]int, n)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("mod%04d.c", i)
			s := ShardOf(name, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", name, n, s)
			}
			if s != ShardOf(name, n) {
				t.Fatalf("ShardOf(%q, %d) unstable", name, n)
			}
			counts[s]++
		}
		for s, c := range counts {
			if n > 1 && c == 0 {
				t.Errorf("n=%d: shard %d got no modules", n, s)
			}
		}
	}
}
