package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// BenchmarkColdMultiPage times cold statements over a heap of many
// pages under a two-level index, with 1 ms misses: the traffic of the
// hints that act after a statement's first fetch (the scan's read-ahead
// window, a leaf's RID pages, the sibling leaf). Every iteration starts
// from an empty cache; reads/op says whether the same pages were read.
// 1 KiB pages and 80-byte rows: 400 rows are 33 heap pages.
func BenchmarkColdMultiPage(b *testing.B) {
	db := Open(Config{PageSize: 1024, MemoryBytes: 4 << 20, ReadLatency: time.Millisecond})
	exec := func(q string, params ...types.Value) {
		if _, err := db.Exec(q, params...); err != nil {
			b.Fatal(err)
		}
	}
	exec("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b INTEGER, c INTEGER, pad VARCHAR(100))")
	exec("CREATE UNIQUE INDEX t_pk ON t (id)")
	pad := types.NewString(strings.Repeat("x", 60))
	for i := 0; i < 400; i++ {
		v := types.NewInt(int64(i))
		exec("INSERT INTO t VALUES (?, ?, ?, ?, ?)", v, v, v, v, pad)
	}
	for _, c := range []struct {
		name, sql string
		rows      int
	}{
		{"heap_scan", "SELECT COUNT(*) FROM t WHERE a >= 0", 1},
		{"index_range_60_rows", "SELECT id, pad FROM t WHERE id >= 100 AND id < 160", 60},
		{"index_range_all_rows", "SELECT id, pad FROM t WHERE id >= 0 AND id < 400 AND a >= 0", 400},
		{"point_select", "SELECT * FROM t WHERE id = 200", 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				if err := db.DropCaches(); err != nil {
					b.Fatal(err)
				}
				before := db.Stats().Pool.TotalPhysicalReads()
				rows, err := db.Query(c.sql)
				if err != nil || len(rows.Data) != c.rows {
					b.Fatal(fmt.Sprint(len(rows.Data), err))
				}
				reads += db.Stats().Pool.TotalPhysicalReads() - before
			}
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkColdOnePage times cold statements on a table of one heap page
// — the paper's many small tables — with 1 ms misses: a point select, an
// update by key and an insert, every iteration from an empty cache. Five
// 80-byte rows on a 1 KiB page under four indexes, which have no tree
// while the heap has one page. reads/op is what the statement read: the
// page, one read for each of the three (an index path read a leaf and
// then the page; an insert, before the indexes lost their trees, the
// page and every leaf).
func BenchmarkColdOnePage(b *testing.B) {
	db := Open(Config{PageSize: 1024, MemoryBytes: 4 << 20, ReadLatency: time.Millisecond})
	exec := func(q string, params ...types.Value) {
		if _, err := db.Exec(q, params...); err != nil {
			b.Fatal(err)
		}
	}
	exec("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b INTEGER, c INTEGER, pad VARCHAR(100))")
	exec("CREATE UNIQUE INDEX t_pk ON t (id)")
	for _, col := range []string{"a", "b", "c"} {
		exec(fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", col, col))
	}
	pad := types.NewString(strings.Repeat("x", 60))
	for i := 0; i < 5; i++ {
		v := types.NewInt(int64(i))
		exec("INSERT INTO t VALUES (?, ?, ?, ?, ?)", v, v, v, v, pad)
	}
	for _, c := range []struct {
		name, sql string
		query     bool
		undo      string // run untimed after each iteration
	}{
		{"point_select", "SELECT * FROM t WHERE id = 3", true, ""},
		{"update_by_key", "UPDATE t SET pad = 'u' WHERE id = 3", false, ""},
		{"insert", "INSERT INTO t VALUES (100, 100, 100, 100, 'p')", false, "DELETE FROM t WHERE id = 100"},
	} {
		b.Run(c.name, func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := db.DropCaches(); err != nil {
					b.Fatal(err)
				}
				before := db.Stats().Pool.TotalPhysicalReads()
				b.StartTimer()
				if c.query {
					rows, err := db.Query(c.sql)
					if err != nil || len(rows.Data) != 1 {
						b.Fatal(err)
					}
				} else {
					exec(c.sql)
				}
				b.StopTimer()
				reads += db.Stats().Pool.TotalPhysicalReads() - before
				if c.undo != "" {
					exec(c.undo)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}
