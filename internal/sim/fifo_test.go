package sim

import (
	"math/rand"
	"testing"
)

// checkFIFO compares q against the model slice element by element and
// asserts that every buffer slot outside the live range is zero, so popped
// and removed elements are not kept reachable.
func checkFIFO(t *testing.T, step int, q *FIFO[*int], model []*int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model %d", step, q.Len(), len(model))
	}
	for i, want := range model {
		if got := q.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %p, model %p", step, i, got, want)
		}
	}
	if c := len(q.buf); c != 0 && c&(c-1) != 0 {
		t.Fatalf("step %d: capacity %d is not a power of two", step, c)
	}
	for i := q.n; i < len(q.buf); i++ {
		if s := q.buf[q.slot(i)]; s != nil {
			t.Fatalf("step %d: dead slot %d holds %p, want nil", step, q.slot(i), s)
		}
	}
}

// TestFIFOMatchesSliceModel drives a FIFO and a plain slice with the same
// random operations — pushes, pops and order-preserving removals at the
// head, the middle and the tail — through many wrap-arounds and growths.
func TestFIFOMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q FIFO[*int]
		var model []*int
		// The push bias drifts so the queue repeatedly fills (growing)
		// and drains (wrapping its head around a fixed buffer).
		for step := 0; step < 4000; step++ {
			pushBias := 0.65
			if (step/500)%2 == 1 {
				pushBias = 0.35
			}
			switch r := rng.Float64(); {
			case r < pushBias || len(model) == 0:
				v := new(int)
				*v = step
				q.PushBack(v)
				model = append(model, v)
			case r < pushBias+0.15:
				got := q.PopFront()
				if got != model[0] {
					t.Fatalf("seed %d step %d: PopFront %p, model %p", seed, step, got, model[0])
				}
				model = model[1:]
			default:
				var i int
				switch rng.Intn(3) {
				case 0:
					i = 0
				case 1:
					i = len(model) - 1
				default:
					i = rng.Intn(len(model))
				}
				got := q.RemoveAt(i)
				if got != model[i] {
					t.Fatalf("seed %d step %d: RemoveAt(%d) %p, model %p", seed, step, i, got, model[i])
				}
				model = append(model[:i:i], model[i+1:]...)
			}
			if q.Len() > 0 && q.Front() != model[0] {
				t.Fatalf("seed %d step %d: Front disagrees with model", seed, step)
			}
			checkFIFO(t, step, &q, model)
		}
	}
}

func TestFIFOGrowsFromZeroValueAndWraps(t *testing.T) {
	var q FIFO[*int]
	vals := make([]*int, 40)
	for i := range vals {
		vals[i] = new(int)
	}
	// Offset the head so the first growth happens on a wrapped buffer.
	q.PushBack(vals[0])
	q.PushBack(vals[1])
	q.PopFront()
	q.PopFront()
	for _, v := range vals {
		q.PushBack(v)
	}
	checkFIFO(t, 0, &q, vals)
	if len(q.buf) != 64 {
		t.Fatalf("capacity %d after 40 pushes, want 64 (doubling from %d)", len(q.buf), fifoMinCap)
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *FIFO[int]){
		"PopFront":  func(q *FIFO[int]) { q.PopFront() },
		"Front":     func(q *FIFO[int]) { q.Front() },
		"At":        func(q *FIFO[int]) { q.At(0) },
		"RemoveAt":  func(q *FIFO[int]) { q.RemoveAt(0) },
		"AtPastEnd": func(q *FIFO[int]) { q.PushBack(1); q.At(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty or short FIFO did not panic", name)
				}
			}()
			var q FIFO[int]
			f(&q)
		}()
	}
}

// TestFIFOWarmZeroAlloc guards the hot-path claim of PushBack and PopFront:
// once the buffer has grown to the working depth, queueing allocates
// nothing.
func TestFIFOWarmZeroAlloc(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 16; i++ {
		q.PushBack(v)
	}
	for q.Len() > 0 {
		q.PopFront()
	}
	if got := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			q.PushBack(v)
		}
		q.RemoveAt(7)
		for q.Len() > 0 {
			q.PopFront()
		}
	}); got != 0 {
		t.Fatalf("warm PushBack/PopFront allocates %v objects/op, want 0", got)
	}
}
