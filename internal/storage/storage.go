// Package storage holds the physical, in-memory representation of the
// benchmark databases. Tables are stored column-major as int64 arrays.
//
// Scale handling: logical row counts at a given scale factor can reach
// hundreds of millions; storing them is unnecessary because every cost in
// the simulator is linear in row/page counts. Each stored table therefore
// keeps at most a capped number of physical rows drawn from the same
// distributions, plus a row multiplier Mult such that
//
//	logical rows = stored rows x Mult.
//
// Predicates are genuinely evaluated against stored rows; all resulting
// cardinalities are scaled by Mult when converted to costs. Foreign keys
// are generated against the referenced table's stored key domain so that
// joins remain exact in stored space.
package storage

import (
	"fmt"
	"slices"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

// Table is the physical storage of one logical table.
type Table struct {
	Meta       *catalog.Table
	Cols       [][]int64 // column-major; parallel to Meta.Columns
	StoredRows int
	Mult       float64 // logical rows / stored rows (>= 1)
}

// Column returns the physical column array by name.
func (t *Table) Column(name string) ([]int64, bool) {
	i := t.Meta.ColumnIndex(name)
	if i < 0 {
		return nil, false
	}
	return t.Cols[i], true
}

// MustColumn is Column that panics when missing; for internal call sites
// that have already validated the query against the schema.
func (t *Table) MustColumn(name string) []int64 {
	c, ok := t.Column(name)
	if !ok {
		panic(fmt.Sprintf("storage: table %q has no column %q", t.Meta.Name, name))
	}
	return c
}

// LogicalRows returns the scaled logical row count.
func (t *Table) LogicalRows() float64 { return float64(t.StoredRows) * t.Mult }

// SelectRows returns the ids, in ascending order, of the stored rows
// matching a conjunction of predicates, reusing buf's storage when it is
// large enough. Predicates on other tables are ignored. A nil return with
// ok=false indicates a predicate referencing a missing column.
//
// Evaluation is column-at-a-time: the first predicate scans its column
// into a selection and every further one filters that selection in place.
// Each tests a value v against the predicate's Bounds [lo, hi] with one
// unsigned comparison, uint64(v-lo) <= uint64(hi-lo), which wraps exactly
// for every int64 once lo <= hi.
func (t *Table) SelectRows(buf []int32, preds []query.Predicate) ([]int32, bool) {
	sel := buf[:0]
	scanned := false
	for _, p := range preds {
		if p.Table != t.Meta.Name {
			continue
		}
		col, ok := t.Column(p.Column)
		if !ok {
			return nil, false
		}
		lo, hi, nonEmpty := p.Bounds()
		span := uint64(hi - lo)
		switch {
		case !nonEmpty:
			sel = sel[:0]
		case !scanned:
			sel = scanColumn(sel, col[:t.StoredRows], lo, span)
		default:
			n := 0
			for _, r := range sel {
				sel[n] = r
				if uint64(col[r]-lo) <= span {
					n++
				}
			}
			sel = sel[:n]
		}
		scanned = true
	}
	if !scanned {
		for r := 0; r < t.StoredRows; r++ {
			sel = append(sel, int32(r))
		}
	}
	return sel, true
}

// scanColumn returns, in buf's storage when it is large enough, the ids
// of the rows of col with uint64(v-lo) <= span. It writes every id and
// advances only past the matching ones, so the loop carries no
// data-dependent branch.
func scanColumn(buf []int32, col []int64, lo int64, span uint64) []int32 {
	sel := slices.Grow(buf[:0], len(col))[:len(col)]
	n := 0
	for r, v := range col {
		sel[n] = int32(r)
		if uint64(v-lo) <= span {
			n++
		}
	}
	return sel[:n]
}

// CountRows returns only the number of stored rows matching the
// conjunction; cheaper than SelectRows when ids are not needed.
func (t *Table) CountRows(preds []query.Predicate) (int, bool) {
	var cols [][]int64
	var ps []query.Predicate
	for _, p := range preds {
		if p.Table != t.Meta.Name {
			continue
		}
		c, ok := t.Column(p.Column)
		if !ok {
			return 0, false
		}
		cols = append(cols, c)
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return t.StoredRows, true
	}
	n := 0
	for r := 0; r < t.StoredRows; r++ {
		match := true
		for i, p := range ps {
			if !p.Matches(cols[i][r]) {
				match = false
				break
			}
		}
		if match {
			n++
		}
	}
	return n, true
}

// Selectivity returns the true fraction of stored rows matching the
// conjunction of predicates on this table (1.0 when there are none).
func (t *Table) Selectivity(preds []query.Predicate) float64 {
	if t.StoredRows == 0 {
		return 0
	}
	n, ok := t.CountRows(preds)
	if !ok {
		return 0
	}
	return float64(n) / float64(t.StoredRows)
}

// Database is a schema plus its physical tables.
type Database struct {
	Schema *catalog.Schema
	Tables map[string]*Table
}

// Table returns the physical table by name.
func (d *Database) Table(name string) (*Table, bool) {
	t, ok := d.Tables[name]
	return t, ok
}

// MustTable panics when the table is missing.
func (d *Database) MustTable(name string) *Table {
	t, ok := d.Tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}

// DataSizeBytes returns the logical data size; the experiment memory
// budget is expressed as a multiple of this.
func (d *Database) DataSizeBytes() int64 { return d.Schema.DataSizeBytes() }
