package eventq

import "timedice/internal/vtime"

// IndexMin is a 4-ary indexed min-heap over the fixed element universe
// 0..n-1, keyed by vtime.Time. Every element is always resident — there is
// no push or pop, only key updates — which matches the engine's use: one
// slot per partition holding that partition's next-local-event time.
//
// The structure supports three O(log₄ n)-or-better operations the engine's
// hot path needs:
//
//   - Update(i, k): move element i to key k (decrease- or increase-key).
//   - MinKey(): the smallest key, for the horizon reduction.
//   - CollectDue(t, buf): every element with key ≤ t, by pruned heap
//     descent — cost O(due·4), independent of n when nothing is due.
//
// Heap order among equal keys is unspecified (it depends on the update
// history); callers that need a deterministic ordering of due elements must
// sort the CollectDue result themselves. All operations are allocation-free
// once the internal scratch stack has grown to its high-water mark.
type IndexMin struct {
	key  []vtime.Time // element id -> key
	heap []int32      // heap position -> element id
	pos  []int32      // element id -> heap position
	// stack is the retained scratch for CollectDue's pruned descent.
	stack []int32
}

// NewIndexMin returns a heap over elements 0..n-1, all with key zero.
func NewIndexMin(n int) *IndexMin {
	q := &IndexMin{
		key:   make([]vtime.Time, n),
		heap:  make([]int32, n),
		pos:   make([]int32, n),
		stack: make([]int32, 0, n),
	}
	for i := range q.heap {
		q.heap[i] = int32(i)
		q.pos[i] = int32(i)
	}
	return q
}

// Len returns the (fixed) number of elements.
func (q *IndexMin) Len() int { return len(q.key) }

// Key returns element i's current key.
func (q *IndexMin) Key(i int) vtime.Time { return q.key[i] }

// MinKey returns the smallest key, or vtime.Infinity if the heap is empty.
func (q *IndexMin) MinKey() vtime.Time {
	if len(q.heap) == 0 {
		return vtime.Infinity
	}
	return q.key[q.heap[0]]
}

// Update sets element i's key to k and restores heap order. Setting the key
// it already has is a no-op.
func (q *IndexMin) Update(i int, k vtime.Time) {
	old := q.key[i]
	if k == old {
		return
	}
	q.key[i] = k
	if k < old {
		q.up(q.pos[i])
	} else {
		q.down(q.pos[i])
	}
}

// CollectDue appends to out the id of every element with key ≤ t and returns
// the extended slice, in unspecified order. Keys are not modified. The
// descent prunes any subtree whose root key exceeds t, so the cost is
// proportional to the number of due elements (times the arity), not to n.
func (q *IndexMin) CollectDue(t vtime.Time, out []int32) []int32 {
	if len(q.heap) == 0 || q.key[q.heap[0]] > t {
		return out
	}
	stack := append(q.stack[:0], 0)
	n := int32(len(q.heap))
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, q.heap[node])
		c := 4*node + 1
		for end := c + 4; c < end && c < n; c++ {
			if q.key[q.heap[c]] <= t {
				stack = append(stack, c)
			}
		}
	}
	q.stack = stack[:0]
	return out
}

// Reset restores the initial state: all keys zero, identity layout. Retains
// capacity.
func (q *IndexMin) Reset() {
	for i := range q.key {
		q.key[i] = 0
		q.heap[i] = int32(i)
		q.pos[i] = int32(i)
	}
}

func (q *IndexMin) swap(a, b int32) {
	ia, ib := q.heap[a], q.heap[b]
	q.heap[a], q.heap[b] = ib, ia
	q.pos[ia], q.pos[ib] = b, a
}

func (q *IndexMin) up(i int32) {
	for i > 0 {
		parent := (i - 1) >> 2
		if q.key[q.heap[i]] >= q.key[q.heap[parent]] {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *IndexMin) down(i int32) {
	n := int32(len(q.heap))
	for {
		smallest := i
		c := 4*i + 1
		for end := c + 4; c < end && c < n; c++ {
			if q.key[q.heap[c]] < q.key[q.heap[smallest]] {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
