package exec

import (
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file holds the streaming operator kernels: the pipeline stages a
// chain (fuse.go) composes into a single pull pipeline. They are the only
// implementation of SELECT, PROJECT, ARITH and the JOIN probe, with AGG as
// the pipeline's sink: a lone operator runs as a chain of one. Each stage
// consumes its upstream batch by batch and reuses its output buffers across
// batches, so a SELECT→PROJECT→AGG chain runs with no per-row allocation
// and no materialized intermediates.

// accTap meters the rows an elided stage emits: their count and their TSV
// size, counted by the same rule as relation.Relation.PhysicalBytes
// (relation.Row.TextBytes). That is what lets the chain walk record the
// same trace whether or not a member materialized.
type accTap struct {
	rows    int
	phys    int64
	scratch []byte
}

func (a *accTap) addRow(row relation.Row) {
	n, scratch := row.TextBytes(a.scratch)
	a.rows++
	a.phys += n
	a.scratch = scratch
}

// valArena hands out row storage to constructing stages. A scratch arena
// recycles one header slice and one value block across batches. A durable
// arena — the last constructing stage before a materializing sink — hands
// out rows that outlive the batch: it carves them from the blocks it holds,
// which the driver sizes for the whole output when the chain keeps every
// row, and otherwise allocates exactly-sized blocks per batch.
type valArena struct {
	durable bool
	hdrs    []relation.Row
	vals    []relation.Value
}

// rows returns n rows of the given arity.
func (a *valArena) rows(n, arity int) []relation.Row {
	var hdrs []relation.Row
	var vals []relation.Value
	if a.durable {
		if len(a.hdrs) < n || len(a.vals) < n*arity {
			a.hdrs, a.vals = make([]relation.Row, n), make([]relation.Value, n*arity)
		}
		hdrs, a.hdrs = a.hdrs[:n:n], a.hdrs[n:]
		vals, a.vals = a.vals[:n*arity], a.vals[n*arity:]
	} else {
		if cap(a.hdrs) < n {
			a.hdrs = make([]relation.Row, n)
		}
		if cap(a.vals) < n*arity {
			a.vals = make([]relation.Value, n*arity)
		}
		hdrs, vals = a.hdrs[:n], a.vals[:n*arity]
	}
	for i := range hdrs {
		hdrs[i] = vals[:arity:arity]
		vals = vals[arity:]
	}
	return hdrs
}

// stage is one step of a pull pipeline: the scan at its head, or a SELECT,
// PROJECT, ARITH or JOIN-probe member running plan. A chunk allocates all
// its stages in one slice, so a pipeline costs one allocation however long
// its chain is.
type stage struct {
	plan *stagePlan // the member this stage runs; for the scan, its pushed-down PROJECT (or nil)
	src  *stage     // upstream; nil for the scan
	tap  *accTap    // meters this stage's output; nil when unmetered
	ar   valArena
	out  []relation.Row

	// The scan reads a row range and applies the chain's leading SELECTs
	// (predicate pushdown, each metered by its own tap) and an immediately
	// following PROJECT (projection pushdown) during the scan itself, so
	// filtered-out rows are never copied and surviving rows are narrowed
	// before any downstream stage sees them.
	in        []relation.Row
	inSch     relation.Schema
	batchRows int
	pos       int
	sels      []stagePlan
	selTaps   []accTap // meters sels[i] for i < len(selTaps)

	// The JOIN probe hashes through its own KeyHasher: the build table is
	// read-only and shared across concurrent pipeline instances.
	h       relation.KeyHasher
	matches [][]relation.Row
}

// Schema implements relation.RowSource.
func (s *stage) Schema() relation.Schema {
	if s.plan != nil {
		return s.plan.sch
	}
	return s.inSch
}

// Next implements relation.RowSource.
func (s *stage) Next() (relation.Batch, error) {
	if s.src == nil {
		return s.scan()
	}
	switch s.plan.op.Type {
	case ir.OpSelect:
		return s.filter()
	case ir.OpProject:
		return s.project()
	case ir.OpArith:
		return s.arith()
	default:
		return s.probe()
	}
}

// headers returns the stage's reusable batch header slice, emptied and with
// room for n rows.
func (s *stage) headers(n int) []relation.Row {
	if cap(s.out) < n {
		s.out = make([]relation.Row, 0, n)
	}
	return s.out[:0]
}

func (s *stage) scan() (relation.Batch, error) {
	n := s.batchRows
	if n <= 0 {
		n = relation.DefaultBatchRows
	}
	for s.pos < len(s.in) {
		hi := min(s.pos+n, len(s.in))
		rows := s.in[s.pos:hi]
		s.pos = hi
		if len(s.sels) > 0 {
			s.out = s.headers(len(rows))
			for _, row := range rows {
				keep := true
				for i := range s.sels {
					ok, err := EvalPred(s.sels[i].pred, s.inSch, row)
					if err != nil {
						return relation.Batch{}, err
					}
					if !ok {
						keep = false
						break
					}
					// The tap meters this SELECT's own output: rows it
					// passes, even ones a later pushed-down predicate drops.
					if i < len(s.selTaps) {
						s.selTaps[i].addRow(row)
					}
				}
				if keep {
					s.out = append(s.out, row)
				}
			}
			rows = s.out
		}
		if len(rows) == 0 {
			continue
		}
		if s.plan == nil {
			return relation.Batch{Rows: rows}, nil
		}
		idx := s.plan.idx
		out := s.ar.rows(len(rows), len(idx))
		for i, row := range rows {
			nr := out[i]
			for k, j := range idx {
				nr[k] = row[j]
			}
			if s.tap != nil {
				s.tap.addRow(nr)
			}
		}
		return relation.Batch{Rows: out}, nil
	}
	return relation.Batch{}, nil
}

// filter passes upstream rows by reference; the stage owns only the batch
// header slice.
func (s *stage) filter() (relation.Batch, error) {
	for {
		b, err := s.src.Next()
		if err != nil || b.Empty() {
			return relation.Batch{}, err
		}
		s.out = s.headers(len(b.Rows))
		for _, row := range b.Rows {
			ok, err := EvalPred(s.plan.pred, s.plan.sch, row)
			if err != nil {
				return relation.Batch{}, err
			}
			if ok {
				if s.tap != nil {
					s.tap.addRow(row)
				}
				//mkvet:ignore arena-escape s.out is this stage's per-Next output view, re-sliced at the top of every Next: aliased rows never outlive the upstream contract window
				s.out = append(s.out, row)
			}
		}
		if len(s.out) > 0 {
			return relation.Batch{Rows: s.out}, nil
		}
	}
}

// project narrows rows to a column subset, copying values into the arena
// (value structs are copied, so outputs never alias upstream storage).
func (s *stage) project() (relation.Batch, error) {
	b, err := s.src.Next()
	if err != nil || b.Empty() {
		return relation.Batch{}, err
	}
	idx := s.plan.idx
	out := s.ar.rows(len(b.Rows), len(idx))
	for i, row := range b.Rows {
		nr := out[i]
		for k, j := range idx {
			nr[k] = row[j]
		}
		if s.tap != nil {
			s.tap.addRow(nr)
		}
	}
	return relation.Batch{Rows: out}, nil
}

// arith computes a derived column per row, in place of dstIdx or appended
// when dstIdx is negative.
func (s *stage) arith() (relation.Batch, error) {
	b, err := s.src.Next()
	if err != nil || b.Empty() {
		return relation.Batch{}, err
	}
	p := s.plan
	arity := p.sch.Arity()
	out := s.ar.rows(len(b.Rows), arity)
	for i, row := range b.Rows {
		l, err := operandValue(p.op.Params.ALeft, p.inSch, row)
		if err != nil {
			return relation.Batch{}, err
		}
		r, err := operandValue(p.op.Params.ARght, p.inSch, row)
		if err != nil {
			return relation.Batch{}, err
		}
		nr := out[i]
		copy(nr, row)
		v := p.op.Params.AOp.Apply(l, r)
		if p.dstIdx >= 0 {
			nr[p.dstIdx] = v
		} else {
			nr[arity-1] = v
		}
		if s.tap != nil {
			s.tap.addRow(nr)
		}
	}
	return relation.Batch{Rows: out}, nil
}

// probe probes the pre-built hash-join table with the streaming (left)
// side, emitting left-row ++ kept-right-column rows.
func (s *stage) probe() (relation.Batch, error) {
	p := s.plan
	for {
		b, err := s.src.Next()
		if err != nil || b.Empty() {
			return relation.Batch{}, err
		}
		total := 0
		s.matches = s.matches[:0]
		for _, lr := range b.Rows {
			m := p.build.probe(&s.h, lr, p.js.lIdx)
			s.matches = append(s.matches, m)
			total += len(m)
		}
		if total == 0 {
			continue
		}
		out := s.ar.rows(total, p.sch.Arity())
		k := 0
		for i, lr := range b.Rows {
			for _, rr := range s.matches[i] {
				nr := out[k]
				k++
				copy(nr, lr)
				c := len(lr)
				for _, j := range p.js.rKeep {
					nr[c] = rr[j]
					c++
				}
				if s.tap != nil {
					s.tap.addRow(nr)
				}
			}
		}
		return relation.Batch{Rows: out}, nil
	}
}

// drainAgg is the aggregation sink: it folds every upstream row into the
// table (which copies the values it keeps) and reports how many rows it
// consumed.
func drainAgg(src relation.RowSource, table *aggTable, gIdx, aIdx []int) (int, error) {
	rows := 0
	for {
		b, err := src.Next()
		if err != nil {
			return rows, err
		}
		if b.Empty() {
			return rows, nil
		}
		for _, row := range b.Rows {
			table.state(row, gIdx, aIdx).accumulate(row, aIdx)
		}
		rows += len(b.Rows)
	}
}

// drainRows is the materializing sink: it appends every batch's row headers
// to dst (the final constructing stage carves its rows from a durable
// arena, so the appended rows outlive the pipeline).
func drainRows(src relation.RowSource, dst []relation.Row) ([]relation.Row, error) {
	for {
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b.Empty() {
			return dst, nil
		}
		dst = append(dst, b.Rows...)
	}
}
