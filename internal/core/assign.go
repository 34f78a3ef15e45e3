package core

import (
	"fmt"

	"repro/internal/types"
)

// ChunkTableDef describes the shape of one generic chunk table: a name
// and an ordered list of typed data columns. Physical column names are
// generated per type (Int1, Str1, Dbl1, Date1, ...), matching the
// paper's Chunk_int|str example.
type ChunkTableDef struct {
	Name string
	Cols []types.ColumnType
	// ValueIndex adds a value index (Tenant, Table, Chunk, <col>) on
	// every data column — the paper's indexed ChunkIndex table that
	// mimics key/foreign-key indexes. The chunk-assignment algorithm
	// routes Indexed logical columns only to ValueIndex defs.
	ValueIndex bool
}

// PhysCols generates the data-column names of the def.
func (d *ChunkTableDef) PhysCols() []string {
	counts := map[types.Kind]int{}
	out := make([]string, len(d.Cols))
	for i, t := range d.Cols {
		counts[t.Kind]++
		out[i] = fmt.Sprintf("%s%d", kindPrefix(t.Kind), counts[t.Kind])
	}
	return out
}

func kindPrefix(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "Int"
	case types.KindFloat:
		return "Dbl"
	case types.KindDate:
		return "Date"
	case types.KindBool:
		return "Bool"
	default:
		return "Str"
	}
}

// chunkStorageKind maps a logical column type onto the chunk-column
// kind that stores it. Booleans ride in integer columns.
func chunkStorageKind(k types.Kind) types.Kind {
	if k == types.KindBool {
		return types.KindInt
	}
	return k
}

// chunkGroup is one chunk of one tenant-table: a set of logical columns
// folded into a chunk table under a chunk ID.
type chunkGroup struct {
	ID   int
	Def  *ChunkTableDef
	Cols []Column // logical columns in this chunk
	Phys []string // physical column name per logical column
}

// fragment describes the chunk as a fragment: rows of the physical
// table selected by meta, each logical column in its typed slot
// (booleans ride in integer slots).
func (g *chunkGroup) fragment(table string, meta []metaEq, del string) *fragment {
	f := &fragment{table: table, meta: meta, del: del, cols: make([]fragCol, len(g.Cols))}
	for i, c := range g.Cols {
		f.cols[i] = fragCol{Column: c, phys: g.Phys[i], store: types.ColumnType{Kind: chunkStorageKind(c.Type.Kind)}}
	}
	return f
}

// assignColumns partitions logical columns into chunks over the
// available chunk-table shapes (the paper's §3 Chunk Table mapping).
// The greedy heuristic repeatedly picks the def that packs the most of
// the remaining columns (ties: least wasted slots, then def order),
// assigns them a chunk ID, and recurses on the rest. startID offsets
// chunk IDs so on-line extensions append new chunks without disturbing
// existing data.
func assignColumns(cols []Column, defs []*ChunkTableDef, startID int) ([]*chunkGroup, error) {
	remaining := append([]Column(nil), cols...)
	var groups []*chunkGroup
	id := startID
	for len(remaining) > 0 {
		var best *ChunkTableDef
		var bestPacked []int
		for _, d := range defs {
			packed := packInto(remaining, d)
			switch {
			case len(packed) > len(bestPacked):
				best, bestPacked = d, packed
			case len(packed) == len(bestPacked) && best != nil &&
				len(packed) > 0 && len(d.Cols) < len(best.Cols):
				best, bestPacked = d, packed // less waste
			}
		}
		if len(bestPacked) == 0 {
			return nil, fmt.Errorf("core: no chunk table can store column %s (%s, indexed=%v)",
				remaining[0].Name, remaining[0].Type, remaining[0].Indexed)
		}
		g := &chunkGroup{ID: id, Def: best}
		id++
		// packInto returned indexes into remaining; map to def columns.
		phys := best.PhysCols()
		free := make([]bool, len(best.Cols))
		for i := range free {
			free[i] = true
		}
		taken := map[int]bool{}
		for _, ri := range bestPacked {
			c := remaining[ri]
			want := chunkStorageKind(c.Type.Kind)
			for di, dt := range best.Cols {
				if free[di] && dt.Kind == want {
					free[di] = false
					g.Cols = append(g.Cols, c)
					g.Phys = append(g.Phys, phys[di])
					break
				}
			}
			taken[ri] = true
		}
		var rest []Column
		for i, c := range remaining {
			if !taken[i] {
				rest = append(rest, c)
			}
		}
		remaining = rest
		groups = append(groups, g)
	}
	return groups, nil
}

// packInto returns the indexes of the remaining columns (in order) that
// fit into one instance of def, respecting type slots and the
// indexed-column routing rule.
func packInto(remaining []Column, def *ChunkTableDef) []int {
	slots := map[types.Kind]int{}
	for _, t := range def.Cols {
		slots[t.Kind]++
	}
	var out []int
	for i, c := range remaining {
		if c.Indexed && !def.ValueIndex {
			continue
		}
		want := chunkStorageKind(c.Type.Kind)
		if slots[want] > 0 {
			slots[want]--
			out = append(out, i)
		}
	}
	return out
}

// UniformChunkDefs builds a standard pair of chunk-table shapes from a
// logical schema: an indexed single-int "ChunkIndex" (for keys and
// foreign keys) and a "ChunkData" table with width data columns whose
// type mix matches the schema's column population. This is the
// paper's §6.2 configuration generalized to arbitrary schemas.
func UniformChunkDefs(s *Schema, width int) []*ChunkTableDef {
	if width < 1 {
		width = 1
	}
	counts := map[types.Kind]int{}
	indexedKinds := map[types.Kind]bool{}
	total := 0
	add := func(cols []Column) {
		for _, c := range cols {
			if c.Indexed {
				indexedKinds[chunkStorageKind(c.Type.Kind)] = true
				continue // routed to an indexed def
			}
			counts[chunkStorageKind(c.Type.Kind)]++
			total++
		}
	}
	for _, t := range s.Tables {
		add(t.Columns)
	}
	for _, e := range s.Extensions {
		add(e.Columns)
	}
	if total == 0 {
		counts[types.KindString] = 1
		total = 1
	}
	// Apportion width slots across kinds by population, at least one
	// slot for every kind present.
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindDate, types.KindString}
	data := &ChunkTableDef{Name: "ChunkData"}
	assigned := 0
	for _, k := range kinds {
		if counts[k] == 0 {
			continue
		}
		n := width * counts[k] / total
		if n < 1 {
			n = 1
		}
		for i := 0; i < n && assigned < width; i++ {
			data.Cols = append(data.Cols, types.ColumnType{Kind: k})
			assigned++
		}
	}
	for assigned < width {
		data.Cols = append(data.Cols, types.ColumnType{Kind: types.KindString})
		assigned++
	}
	// One single-column indexed def per kind that has indexed columns
	// (the ChunkIndex tables of §6.2, generalized beyond integers).
	indexSuffix := map[types.Kind]string{
		types.KindInt: "Int", types.KindFloat: "Dbl",
		types.KindDate: "Date", types.KindString: "Str",
	}
	out := []*ChunkTableDef{}
	if len(indexedKinds) == 0 {
		indexedKinds[types.KindInt] = true // keys are always indexed ints somewhere
	}
	for _, k := range kinds {
		if indexedKinds[k] {
			out = append(out, &ChunkTableDef{
				Name:       "ChunkIndex" + indexSuffix[k],
				Cols:       []types.ColumnType{{Kind: k}},
				ValueIndex: true,
			})
		}
	}
	return append(out, data)
}
