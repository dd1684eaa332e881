package shortcut

import "testing"

// decodeIDs turns fuzz bytes into a small int slice (values 0..31, so
// collisions — the interesting case — are common).
func decodeIDs(data []byte) []int {
	out := make([]int, len(data))
	for i, b := range data {
		out[i] = int(b % 32)
	}
	return out
}

func isSortedDeduped(s []int) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// FuzzSortedDedup checks the normalization invariants: output sorted and
// duplicate-free, exactly the distinct input values, never aliasing the
// input.
func FuzzSortedDedup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{3, 1, 3, 2, 1})
	f.Add([]byte{5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeIDs(data)
		orig := append([]int(nil), in...)
		out := sortedDedup(in)
		if !isSortedDeduped(out) {
			t.Fatalf("not sorted/deduped: %v", out)
		}
		// Same distinct value set.
		want := map[int]bool{}
		for _, v := range orig {
			want[v] = true
		}
		if len(out) != len(want) {
			t.Fatalf("%d distinct values, got %d: in=%v out=%v", len(want), len(out), orig, out)
		}
		for _, v := range out {
			if !want[v] {
				t.Fatalf("value %d not in input %v", v, orig)
			}
		}
		// Input must be untouched (sortedDedup copies before sorting).
		for i, v := range in {
			if v != orig[i] {
				t.Fatalf("input mutated at %d: %v vs %v", i, in, orig)
			}
		}
		// The output must not alias the input's backing array.
		if len(out) > 0 && len(in) > 0 {
			save := out[0]
			out[0] = -99
			if in[0] == -99 {
				t.Fatal("output aliases input")
			}
			out[0] = save
		}
	})
}
