// Package dd implements the quantum multiple-valued decision diagram (QMDD)
// kernel used throughout the simulator: hash-consed vector and matrix
// decision diagrams with canonical normalization, memoized arithmetic
// (addition, matrix-vector and matrix-matrix multiplication), gate-matrix
// construction, amplitude extraction, size and MAC-operation accounting, and
// mark-and-sweep garbage collection.
//
// A vector DD represents a 2^n state vector; a matrix DD represents a
// 2^n x 2^n operator. Nodes at level l decide qubit l (level n-1, the most
// significant qubit, sits at the top; the shared terminal node has level
// TerminalLevel). The value of an entry is the product of the edge weights
// along the corresponding root-to-terminal path, exactly as in Figure 2 of
// the FlatDD paper.
package dd

// TerminalLevel is the level of the shared terminal node.
const TerminalLevel = -1

// VNode is a vector decision-diagram node. E[0] is the sub-vector where the
// node's qubit is 0 ("upper half"), E[1] where it is 1 ("lower half").
// Nodes are immutable after construction and unique: two structurally equal
// nodes are pointer equal.
type VNode struct {
	E     [2]VEdge
	Level int8

	// gc bookkeeping, owned by the Manager.
	marked bool
}

// MNode is a matrix decision-diagram node. Children are stored in row-major
// order: E[0]=e00 (upper-left), E[1]=e01 (upper-right), E[2]=e10
// (lower-left), E[3]=e11 (lower-right), matching the paper's M_r.n.e[i][j]
// with index 2i+j.
type MNode struct {
	E     [4]MEdge
	Level int8

	// Ident reports that the node is the 2^(Level+1) x 2^(Level+1)
	// identity: unit-weight diagonal children sharing one child that is
	// the terminal or itself Ident, and zero off-diagonal children. It is
	// set once, when MakeMNode interns the node, and lets DMAV update a
	// whole identity sub-block with one contiguous loop.
	Ident bool

	marked bool
}

// VEdge is a weighted edge to a vector node. A weight of 0 with the terminal
// node as target is the canonical zero edge.
type VEdge struct {
	W complex128
	N *VNode
}

// MEdge is a weighted edge to a matrix node.
type MEdge struct {
	W complex128
	N *MNode
}

// IsZero reports whether the edge is the zero edge (or numerically dead).
func (e VEdge) IsZero() bool { return e.W == 0 }

// IsTerminal reports whether the edge points at the terminal node.
func (e VEdge) IsTerminal() bool { return e.N.Level == TerminalLevel }

// IsZero reports whether the edge is the zero edge.
func (e MEdge) IsZero() bool { return e.W == 0 }

// IsTerminal reports whether the edge points at the terminal node.
func (e MEdge) IsTerminal() bool { return e.N.Level == TerminalLevel }

// Child returns the (i,j) child edge of a matrix node, i the row bit and j
// the column bit of the node's qubit.
func (n *MNode) Child(i, j int) MEdge { return n.E[2*i+j] }
