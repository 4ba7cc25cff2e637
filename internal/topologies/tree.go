package topologies

import (
	"fmt"
)

// CompleteBinaryTree is the complete binary tree of the given height:
// 2^(h+1) − 1 nodes.  Node IDs are heap indices 0..2^(h+1)−2 (root 0,
// children of v at 2v+1 and 2v+2).
type CompleteBinaryTree struct {
	height int
	order  int
	buf    []int
}

// NewCompleteBinaryTree returns the tree of the given height ≥ 0.
func NewCompleteBinaryTree(height int) (*CompleteBinaryTree, error) {
	if height < 0 || height > 28 {
		return nil, fmt.Errorf("topologies: tree height %d out of range [0,28]", height)
	}
	return &CompleteBinaryTree{
		height: height,
		order:  (1 << (height + 1)) - 1,
		buf:    make([]int, 0, 3),
	}, nil
}

// Name returns e.g. "CBT(5)".
func (t *CompleteBinaryTree) Name() string { return fmt.Sprintf("CBT(%d)", t.height) }

// Order returns 2^(h+1) − 1.
func (t *CompleteBinaryTree) Order() int { return t.order }

// Neighbors returns parent and children of v.  The slice is reused
// across calls.
func (t *CompleteBinaryTree) Neighbors(v int) []int {
	t.buf = t.buf[:0]
	if v > 0 {
		t.buf = append(t.buf, (v-1)/2)
	}
	if c := 2*v + 1; c < t.order {
		t.buf = append(t.buf, c)
	}
	if c := 2*v + 2; c < t.order {
		t.buf = append(t.buf, c)
	}
	return t.buf
}

// Inorder returns the inorder index of node v (heap index), i.e. the
// position of v in an inorder traversal.  The classic dilation-2
// embedding of the complete binary tree into the hypercube Q_(h+1)
// maps node v to its inorder index: tree edges then connect numbers at
// Hamming distance ≤ 2.
func (t *CompleteBinaryTree) Inorder(v int) int {
	// Iterative inorder rank: at depth d (leaves at depth h), the
	// subtree below v spans a contiguous inorder interval; v sits at
	// its midpoint.
	lo, hi := 0, t.order-1
	cur := 0
	for {
		mid := (lo + hi) / 2
		if cur == v {
			return mid
		}
		if isInSubtree(v, 2*cur+1, t.order) {
			cur = 2*cur + 1
			hi = mid - 1
		} else {
			cur = 2*cur + 2
			lo = mid + 1
		}
	}
}

// isInSubtree reports whether v lies in the heap subtree rooted at r.
func isInSubtree(v, r, order int) bool {
	for v < order && v >= 0 {
		if v == r {
			return true
		}
		if v < r {
			return false
		}
		v = (v - 1) / 2
	}
	return false
}
