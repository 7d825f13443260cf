package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Canonicalization is a DAG's one identity: it keys the plan cache and
// the workflow-history store. The hash is a digest of the DAG's
// *semantics* — operator kinds, parameters, literals, declared schemas,
// and edge structure — that is invariant under the two things that vary
// freely between textually different submissions of the same workflow:
// the names chosen for intermediate relations (Op.Out) and the order
// operators were appended in. Two submissions whose DAGs differ only in
// those respects canonicalize identically, so a plan computed for one
// replays on the other and history learned from one applies to the other.
//
// The construction is a Weisfeiler–Leman-style color refinement:
//
//  1. Every operator gets a downward signature: a hash of its type, its
//     name-free parameter rendering, and (positionally) its inputs'
//     downward signatures. This captures each operator's entire upstream
//     cone.
//  2. Signatures are refined with consumer information — an operator's
//     refined signature hashes its previous signature together with the
//     sorted multiset of its consumers' previous signatures — until the
//     partition of operators into equal-signature classes stops changing.
//     After refinement two operators share a signature only if their
//     upstream *and* downstream contexts are indistinguishable, i.e. they
//     are interchangeable for partitioning purposes.
//
// WHILE bodies fold into their operator's parameter signature through the
// same refinement run *with* relation names included: body relation names
// are semantically load-bearing (Carried, CondRel, and the outer-name
// input bridges all refer to them), so renaming inside a loop body is
// deliberately NOT canonicalized away.

// Canon is a DAG's canonical identity.
type Canon struct {
	// Hash digests the sorted multiset of refined signatures (16 hex
	// characters).
	Hash string
	// Order sorts the operators by (refined signature, topological
	// position). For two DAGs with equal Hash the i-th operators of their
	// orders correspond: equal-signature classes have equal sizes on both
	// sides, and operators within one class are interchangeable, so the
	// positional pairing is a semantic bijection.
	Order []*Op
	// Pos inverts Order: each operator's name-free position.
	Pos map[*Op]int
}

// Canonicalize computes the DAG's canonical identity in one refinement
// pass. WHILE bodies are not positioned: each is its own DAG.
func Canonicalize(d *DAG) *Canon { return canonicalize(d, false) }

// canonicalize is Canonicalize; named adds each operator's relation name
// to its signature, the form a WHILE body folds in as.
func canonicalize(d *DAG, named bool) *Canon {
	sigs := refinedSigs(d, named)
	topoPos := make(map[*Op]int, len(d.Ops))
	topo, err := d.TopoSort()
	if err != nil {
		topo = d.Ops
	}
	for i, op := range topo {
		topoPos[op] = i
	}
	order := append([]*Op(nil), d.Ops...)
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := sigs[order[i]], sigs[order[j]]
		if si != sj {
			return si < sj
		}
		return topoPos[order[i]] < topoPos[order[j]]
	})
	pos := make(map[*Op]int, len(order))
	h := sha256.New()
	fmt.Fprintf(h, "canon:%d|", len(order))
	for i, op := range order {
		pos[op] = i
		h.Write([]byte(sigs[op]))
		h.Write([]byte{'\n'})
	}
	return &Canon{Hash: hex.EncodeToString(h.Sum(nil))[:16], Order: order, Pos: pos}
}

// refinedSigs computes the stable refined signature of every operator;
// named adds each operator's relation name to its signature.
func refinedSigs(d *DAG, named bool) map[*Op]string {
	// Round 0: downward structural signatures (full upstream cone).
	sigs := make(map[*Op]string, len(d.Ops))
	var down func(op *Op) string
	down = func(op *Op) string {
		if s, ok := sigs[op]; ok {
			return s
		}
		var b strings.Builder
		if named {
			b.WriteString(op.Out)
			b.WriteByte('=')
		}
		b.WriteString(op.Type.String())
		b.WriteByte('{')
		b.WriteString(paramSig(op))
		b.WriteString("}(")
		for i, in := range op.Inputs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(down(in))
		}
		b.WriteByte(')')
		s := digest(b.String())
		sigs[op] = s
		return s
	}
	for _, op := range d.Ops {
		down(op)
	}

	// Upward refinement to a fixpoint of the signature partition: fold each
	// operator's consumers' signatures in until the number of distinct
	// classes stops growing (it can only grow — each round's signature
	// includes the previous round's).
	cons := d.Consumers()
	classes := countDistinct(sigs)
	for round := 0; round < len(d.Ops); round++ {
		next := make(map[*Op]string, len(sigs))
		for _, op := range d.Ops {
			cs := make([]string, 0, len(cons[op]))
			for _, c := range cons[op] {
				cs = append(cs, sigs[c])
			}
			sort.Strings(cs)
			next[op] = digest(sigs[op] + "^" + strings.Join(cs, ","))
		}
		sigs = next
		if n := countDistinct(sigs); n == classes {
			break
		} else {
			classes = n
		}
	}
	return sigs
}

func countDistinct(sigs map[*Op]string) int {
	set := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		set[s] = true
	}
	return len(set)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}

// paramSig renders an operator's semantic parameters without its output
// relation name. Column names, literals, predicates, schemas, and DFS
// paths are all semantics and stay in; Op.Out and Op.ID stay out.
func paramSig(op *Op) string {
	p := &op.Params
	var b strings.Builder
	switch op.Type {
	case OpInput:
		fmt.Fprintf(&b, "path=%s;schema=%s", p.Path, p.Schema)
	case OpSelect:
		fmt.Fprintf(&b, "pred=%s", p.Pred)
	case OpProject:
		fmt.Fprintf(&b, "cols=%v;as=%v", p.Columns, p.As)
	case OpJoin, OpCrossJoin:
		fmt.Fprintf(&b, "l=%v;r=%v", p.LeftCols, p.RightCols)
	case OpAgg:
		fmt.Fprintf(&b, "by=%v;aggs=%v", p.GroupBy, p.Aggs)
	case OpArith:
		fmt.Fprintf(&b, "dst=%s;l=%s;op=%s;r=%s", p.Dst, p.ALeft, p.AOp, p.ARght)
	case OpUDF:
		fmt.Fprintf(&b, "udf=%s", p.UDFName)
	case OpSort:
		fmt.Fprintf(&b, "by=%v;desc=%t", p.SortBy, p.Desc)
	case OpLimit:
		fmt.Fprintf(&b, "n=%d", p.Limit)
	case OpWhile:
		// Body relation names are load-bearing (Carried / CondRel / outer
		// bridges), so the body folds in through a named refinement.
		carried := make([]string, 0, len(p.Carried))
		for k, v := range p.Carried {
			carried = append(carried, k+"->"+v)
		}
		sort.Strings(carried)
		body := ""
		if p.Body != nil {
			body = canonicalize(p.Body, true).Hash
		}
		fmt.Fprintf(&b, "body=%s;max=%d;cond=%s;carried=%v", body, p.MaxIter, p.CondRel, carried)
	}
	return b.String()
}
