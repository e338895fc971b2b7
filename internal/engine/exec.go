package engine

import (
	"fmt"
	"slices"
	"sync"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// maxTuples bounds intermediate join results; beyond it the executor
// down-samples the tuple set and tracks the sampling factor so that all
// downstream cardinalities remain unbiased.
const maxTuples = 200000

// ExecStats reports the true (simulated) execution of one query: the
// total time, and the per-operator observations the bandit consumes.
type ExecStats struct {
	TotalSec float64
	// OutRows is the true logical output cardinality.
	OutRows float64

	// TableScanSec is Ctab(t, q, emptyset): the full-scan time each
	// referenced table would cost this query, used as the gain baseline.
	TableScanSec map[string]float64
	// IndexAccessSec is Ctab(t, q, {i}): the actual time charged to each
	// secondary index the plan used, keyed by index id.
	IndexAccessSec map[string]IndexAccess
}

// IndexAccess pairs the table an index belongs to with the access time
// attributed to it (an index is used at most once per plan here).
type IndexAccess struct {
	Table string
	Sec   float64
}

// scratch is the working memory of one Execute call. Execute takes it
// from scratchPool and returns it, so steady-state execution allocates
// nothing that grows with the rows it touches.
type scratch struct {
	// sel and seek are selection vectors: the rows passing a table's
	// filters, and those passing an index seek's predicates.
	sel, seek []int32
	// cur and out hold the pipeline's tuples row-major with a width
	// stride (tuple i is cur[i*width:(i+1)*width], one stored row id per
	// joined table); they swap at every join step.
	cur, out []int32
	// probe lists (tuple index, chain head in post) for every tuple
	// with at least one match.
	probe []int32
	// slots names the pipeline's tables in tuple-column order.
	slots []string
	post  postings
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// postings chains a join's build-side rows by join key: first(v) is
// 1 + the index in ids of the first row with key v (0 when none), and
// next[j-1] continues the chain from 1-based entry j. Every chain runs in
// ascending row order, which is the match order the tuple sampling
// downstream depends on. Heads are indexed directly by v-lo when the key
// range is narrow, and kept in byKey otherwise.
type postings struct {
	ids, next, head []int32
	lo, hi          int64
	dense           bool
	byKey           map[int64]int32
}

// build chains the rows ids of col; probes is the number of lookups to
// come, which a direct head index must not dwarf in size.
func (pb *postings) build(col []int64, ids []int32, probes int) {
	pb.ids = ids
	pb.lo, pb.hi = 0, -1
	if len(ids) > 0 {
		pb.lo, pb.hi = col[ids[0]], col[ids[0]]
	}
	for _, r := range ids {
		pb.lo, pb.hi = min(pb.lo, col[r]), max(pb.hi, col[r])
	}
	pb.dense = uint64(pb.hi-pb.lo) < uint64(8*(len(ids)+probes)+4096)
	if pb.dense {
		pb.head = grow(pb.head, int(pb.hi-pb.lo)+1)
		clear(pb.head)
	} else if pb.byKey == nil {
		pb.byKey = make(map[int64]int32)
	} else {
		clear(pb.byKey)
	}
	// Pushing rows onto their key's chain in reverse leaves every chain
	// ascending.
	pb.next = grow(pb.next, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		v := col[ids[i]]
		if pb.dense {
			pb.next[i] = pb.head[v-pb.lo]
			pb.head[v-pb.lo] = int32(i + 1)
		} else {
			pb.next[i] = pb.byKey[v]
			pb.byKey[v] = int32(i + 1)
		}
	}
}

// first returns the 1-based chain head for key v, 0 when no row has it.
func (pb *postings) first(v int64) int32 {
	if !pb.dense {
		return pb.byKey[v]
	}
	if v < pb.lo || v > pb.hi {
		return 0
	}
	return pb.head[v-pb.lo]
}

// grow returns b resliced to length n, reallocating only when it is too
// small; the contents are unspecified.
func grow(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// Execute runs the plan against the database, computing true operator
// times from stored-data cardinalities. It returns an error only for
// malformed plans (unknown tables/columns); optimiser-produced plans are
// always well-formed.
func Execute(db *storage.Database, p *Plan, cm *CostModel) (*ExecStats, error) {
	q := p.Query
	st := &ExecStats{
		TableScanSec:   make(map[string]float64, len(q.Tables)),
		IndexAccessSec: make(map[string]IndexAccess),
	}

	// Baseline full-scan times for every referenced table (analytic).
	for _, tname := range q.Tables {
		tbl, ok := db.Table(tname)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", tname)
		}
		st.TableScanSec[tname] = cm.TableScanSec(tbl.Meta, len(q.FiltersOn(tname)))
	}

	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	// Driver access: its selected row ids are the width-1 tuple buffer.
	driver, ok := db.Table(p.Driver.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown driver table %q", p.Driver.Table)
	}
	var okSel bool
	s.cur, okSel = driver.SelectRows(s.cur, q.FiltersOn(p.Driver.Table))
	if !okSel {
		return nil, fmt.Errorf("engine: predicate on missing column of %s", p.Driver.Table)
	}
	accessSec, err := s.accessSec(driver, p.Driver, q, cm)
	if err != nil {
		return nil, err
	}
	st.TotalSec += accessSec
	if ix := p.Driver.Index; ix != nil {
		st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: accessSec}
	}

	s.slots = append(s.slots[:0], p.Driver.Table)
	n := len(s.cur) // tuple count
	logicalFactor := driver.Mult
	sampleFactor := 1.0

	for _, step := range p.Steps {
		inner, ok := db.Table(step.InnerTable)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join table %q", step.InnerTable)
		}
		outerSlot := slices.Index(s.slots, step.OuterTable)
		if outerSlot < 0 {
			return nil, fmt.Errorf("engine: join step on %s references table %s not yet in pipeline", step.InnerTable, step.OuterTable)
		}
		outerCol, ok := db.MustTable(step.OuterTable).Column(step.OuterColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.OuterTable, step.OuterColumn)
		}
		innerCol, ok := inner.Column(step.InnerColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.InnerTable, step.InnerColumn)
		}

		innerPreds := q.FiltersOn(step.InnerTable)
		s.sel, okSel = inner.SelectRows(s.sel, innerPreds)
		if !okSel {
			return nil, fmt.Errorf("engine: predicate on missing column of %s", step.InnerTable)
		}

		// Exact join in stored space for both algorithms (the difference
		// is only in what the step costs). A counting pass sizes the
		// result; when it exceeds maxTuples only every k-th match is
		// materialised, the same tuples a full join sampled with stride k
		// would keep, and sampleFactor carries k so cardinalities stay
		// unbiased.
		width := len(s.slots)
		matches := 0
		s.probe = s.probe[:0]
		if n > 0 {
			s.post.build(innerCol, s.sel, n)
			for i := 0; i < n; i++ {
				j := s.post.first(outerCol[s.cur[i*width+outerSlot]])
				if j == 0 {
					continue
				}
				s.probe = append(s.probe, int32(i), j)
				for ; j != 0; j = s.post.next[j-1] {
					matches++
				}
			}
		}
		k := 1
		if matches > maxTuples {
			k = (matches + maxTuples - 1) / maxTuples
		}
		kept := (matches + k - 1) / k
		s.out = grow(s.out, kept*(width+1))
		pos, seen, keep := 0, 0, 0 // keep is the index of the next match to keep
		for h := 0; h < len(s.probe) && keep < matches; h += 2 {
			i := int(s.probe[h])
			for j := s.probe[h+1]; j != 0; j = s.post.next[j-1] {
				if seen == keep {
					copy(s.out[pos:], s.cur[i*width:i*width+width])
					s.out[pos+width] = s.post.ids[j-1]
					pos += width + 1
					keep += k
				}
				seen++
			}
		}

		probesLogical := float64(n) * sampleFactor * logicalFactor
		if inner.Mult > logicalFactor {
			logicalFactor = inner.Mult
		}
		outLogical := float64(matches) * sampleFactor * logicalFactor
		innerMatchedLogical := float64(len(s.sel)) * inner.Mult

		var stepSec float64
		switch step.Algo {
		case JoinHash:
			// Inner side is scanned/accessed once, then hashed.
			innerTbl, ok := db.Table(step.Inner.Table)
			if !ok {
				return nil, fmt.Errorf("engine: unknown table %q", step.Inner.Table)
			}
			innerAccessSec, err := s.accessSec(innerTbl, step.Inner, q, cm)
			if err != nil {
				return nil, err
			}
			stepSec = innerAccessSec + cm.HashJoinSec(innerMatchedLogical, probesLogical)
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: innerAccessSec}
			}
		case JoinIndexNL:
			entryWidth, fetch := nlInnerShape(step.Inner, inner, cm)
			fetchRows := 0.0
			if fetch {
				fetchRows = outLogical
			}
			innerPages := cm.PagesOf(inner.Meta.SizeBytes())
			stepSec = cm.NLJoinSec(probesLogical, outLogical, fetchRows, entryWidth, innerPages)
			// Residual inner predicates are evaluated per matched row.
			if np := len(innerPreds); np > 0 {
				stepSec += outLogical * float64(np) * cm.CPUPredSec
			}
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: stepSec}
			}
		default:
			return nil, fmt.Errorf("engine: unknown join algorithm %d", step.Algo)
		}
		st.TotalSec += stepSec

		s.slots = append(s.slots, step.InnerTable)
		s.cur, s.out = s.out, s.cur
		n = kept
		if k > 1 {
			sampleFactor *= float64(k)
		}
	}

	st.OutRows = float64(n) * sampleFactor * logicalFactor
	st.TotalSec += cm.OutputSec(st.OutRows, q.AggWidth)
	return st, nil
}

// accessSec is the true time of a driver-style access path (a plan driver
// or a hash-join inner side), with an index seek's matching rows counted
// from stored data.
func (s *scratch) accessSec(tbl *storage.Table, acc Access, q *query.Query, cm *CostModel) (float64, error) {
	preds := q.FiltersOn(acc.Table)
	switch acc.Kind {
	case AccessSeqScan:
		return cm.TableScanSec(tbl.Meta, len(preds)), nil

	case AccessIndexSeek, AccessIndexOnly:
		ix := acc.Index
		if ix == nil {
			return 0, fmt.Errorf("engine: %s access on %s without index", acc.Kind, acc.Table)
		}
		entryWidth := float64(ix.EntryWidthBytes(tbl.Meta))
		tablePages := cm.PagesOf(tbl.Meta.SizeBytes())
		seek, residual := splitSeekPreds(ix, preds, acc.EqLen, acc.HasRange)
		if len(seek) == 0 {
			// No usable prefix: full leaf-level scan of the index (only
			// sensible when covering).
			rows := float64(tbl.Meta.RowCount)
			return cm.IndexScanSec(rows, entryWidth, len(preds)), nil
		}
		var okSel bool
		s.seek, okSel = tbl.SelectRows(s.seek, seek)
		if !okSel {
			return 0, fmt.Errorf("engine: seek predicate on missing column of %s", acc.Table)
		}
		matchLogical := float64(len(s.seek)) * tbl.Mult
		fetchRows := matchLogical
		if acc.Covering {
			fetchRows = 0
		}
		sec := cm.IndexSeekSec(matchLogical, fetchRows, entryWidth, tablePages)
		if n := len(residual); n > 0 {
			sec += matchLogical * float64(n) * cm.CPUPredSec
		}
		return sec, nil

	default:
		return 0, fmt.Errorf("engine: unsupported driver access kind %s", acc.Kind)
	}
}

// splitSeekPreds partitions the table's predicates into those served by
// the index seek (equalities on the first eqLen key columns plus at most
// one range on the next key column) and the residual ones evaluated per
// matched row.
func splitSeekPreds(ix *index.Index, preds []query.Predicate, eqLen int, hasRange bool) (seek, residual []query.Predicate) {
	rangeCol := ""
	if hasRange && eqLen < len(ix.Key) {
		rangeCol = ix.Key[eqLen]
	}
	for _, p := range preds {
		pos := ix.KeyPosition(p.Column)
		switch {
		case p.IsEquality() && pos >= 0 && pos < eqLen:
			seek = append(seek, p)
		case !p.IsEquality() && p.Column == rangeCol:
			seek = append(seek, p)
		default:
			residual = append(residual, p)
		}
	}
	return seek, residual
}

// nlInnerShape returns the inner entry width and whether matched rows
// need base-table fetches for an index-nested-loop inner access.
func nlInnerShape(acc Access, inner *storage.Table, cm *CostModel) (entryWidth float64, fetch bool) {
	if acc.Kind == AccessClusteredSeek || acc.Index == nil {
		// Clustered access: the "entries" are full rows, no extra fetch.
		return float64(inner.Meta.RowWidthBytes()), false
	}
	return float64(acc.Index.EntryWidthBytes(inner.Meta)), !acc.Covering
}
