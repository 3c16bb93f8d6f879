package inorder

import (
	"fmt"
	"reflect"
	"testing"
)

// permutations returns every ordering of xs.
func permutations(xs []int64) [][]int64 {
	if len(xs) <= 1 {
		return [][]int64{append([]int64(nil), xs...)}
	}
	var out [][]int64
	for i := range xs {
		rest := append(append([]int64(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int64{xs[i]}, p...))
		}
	}
	return out
}

// TestBuffer: whatever order values arrive in, they pop in index order,
// each index once. An arrival is a Put followed by popping everything
// that became releasable, the way every user drains the buffer.
func TestBuffer(t *testing.T) {
	type put struct {
		i    int64
		kept bool
	}
	cases := []struct {
		name  string
		start int64
		puts  []put
		want  []string // popped values, in pop order
		next  int64
	}{
		{
			name:  "second put for an index is dropped",
			start: 0,
			puts:  []put{{1, true}, {1, false}, {0, true}, {0, false}, {2, true}},
			want:  []string{"0#2", "1#0", "2#4"},
			next:  3,
		},
		{
			name:  "put below the watermark is dropped",
			start: 0,
			puts:  []put{{0, true}, {1, true}, {0, false}, {1, false}, {2, true}},
			want:  []string{"0#0", "1#1", "2#4"},
			next:  3,
		},
		{
			name:  "resume watermark ignores earlier indexes",
			start: 5,
			puts:  []put{{6, true}, {2, false}, {4, false}, {5, true}, {7, true}},
			want:  []string{"5#3", "6#0", "7#4"},
			next:  8,
		},
		{
			name:  "a gap holds everything above it",
			start: 0,
			puts:  []put{{1, true}, {2, true}, {3, true}},
			want:  nil,
			next:  0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New[string](tc.start)
			var got []string
			for k, p := range tc.puts {
				// The value records its arrival position, so a dropped
				// duplicate that overwrote the first offer would show.
				if kept := b.Put(p.i, fmt.Sprintf("%d#%d", p.i, k)); kept != p.kept {
					t.Errorf("Put(%d) at arrival %d reported kept=%v, want %v", p.i, k, kept, p.kept)
				}
				for v, ok := b.Pop(); ok; v, ok = b.Pop() {
					got = append(got, v)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("popped %v, want %v", got, tc.want)
			}
			if b.Next() != tc.next {
				t.Errorf("Next() = %d, want %d", b.Next(), tc.next)
			}
		})
	}

	for _, start := range []int64{0, 3} {
		idx := []int64{start, start + 1, start + 2, start + 3, start + 4}
		for _, order := range permutations(idx) {
			b := New[int64](start)
			var got []int64
			for _, i := range order {
				if !b.Put(i, 10*i) {
					t.Fatalf("order %v: first Put(%d) dropped", order, i)
				}
				for v, ok := b.Pop(); ok; v, ok = b.Pop() {
					got = append(got, v/10)
				}
			}
			if !reflect.DeepEqual(got, idx) || b.Next() != start+int64(len(idx)) {
				t.Fatalf("arrival order %v popped %v (Next %d), want %v", order, got, b.Next(), idx)
			}
		}
	}
}
