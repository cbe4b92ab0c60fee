package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBitsetFreeMatchesSortedModel drives the bitset through random Add
// and Remove sequences, re-adding idle nodes and removing busy ones among
// them (both no-ops), on partitions around the 64-bit word boundaries,
// and after every operation checks Len, Has, AppendAll, First and Last
// against a sorted slice of the idle indexes.
func TestBitsetFreeMatchesSortedModel(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 10_000} {
		t.Run(fmt.Sprintf("%dnodes", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			f := newBitsetFree(n)
			model := make([]int, n)
			for i := range model {
				model[i] = i
			}
			check := func(op string) {
				t.Helper()
				if f.Len() != len(model) {
					t.Fatalf("after %s: Len %d, model %d", op, f.Len(), len(model))
				}
				if got := f.AppendAll(nil); !slices.Equal(got, model) {
					t.Fatalf("after %s: AppendAll %v, model %v", op, got, model)
				}
				for _, i := range []int{0, n - 1, rng.Intn(n)} {
					_, idle := slices.BinarySearch(model, i)
					if f.Has(i) != idle {
						t.Fatalf("after %s: Has(%d) = %v, model %v", op, i, f.Has(i), idle)
					}
				}
				k := rng.Intn(n + 2) // up to Len()+1 and beyond
				kk := min(k, len(model))
				if got, want := f.First(k), model[:kk]; !slices.Equal(got, want) {
					t.Fatalf("after %s: First(%d) = %v, want %v", op, k, got, want)
				}
				if got, want := f.Last(k), model[len(model)-kk:]; !slices.Equal(got, want) {
					t.Fatalf("after %s: Last(%d) = %v, want %v", op, k, got, want)
				}
			}
			check("newBitsetFree")
			for step := 0; step < 2000; step++ {
				i := rng.Intn(n)
				pos, idle := slices.BinarySearch(model, i)
				if rng.Intn(2) == 0 {
					f.Add(i)
					if !idle {
						model = slices.Insert(model, pos, i)
					}
					check(fmt.Sprintf("Add(%d), idle before %v", i, idle))
				} else {
					f.Remove(i)
					if idle {
						model = slices.Delete(model, pos, pos+1)
					}
					check(fmt.Sprintf("Remove(%d), idle before %v", i, idle))
				}
			}
		})
	}
}

// TestBitsetFreeUpdatesAllocateNothing: the scheduler calls Add, Remove
// and Len on every job start and end and every scheduling pass.
func TestBitsetFreeUpdatesAllocateNothing(t *testing.T) {
	f := newBitsetFree(130)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 130; i += 7 {
			f.Remove(i)
			f.Remove(i) // no-op on a busy node
			_ = f.Len()
			f.Add(i)
			f.Add(i) // no-op on an idle node
		}
	})
	if allocs != 0 {
		t.Errorf("Add/Remove/Len allocated %v times a run, want 0", allocs)
	}
}
