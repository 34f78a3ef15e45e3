// Command chunkbench reproduces the paper's §6.2 experiments over
// Chunk Tables: Figure 9 (warm-cache response times), Figure 10
// (logical page reads), Figure 11 (cold-cache response times), and
// Figure 12 (Chunk Folding vs vertical partitioning), swept over chunk
// widths and Q2 scale factors. With -explain it prints the Figure 8
// physical plan of the chunked Q2 query.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chunkexp"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		parents  = flag.Int("parents", 300, "parent rows (paper: 10000)")
		children = flag.Int("children", 10, "children per parent (paper: 100)")
		widths   = flag.String("widths", "3,6,15,30,90", "chunk widths (# data columns)")
		scales   = flag.String("scales", "3,9,18,30,45,60,90", "Q2 scale factors")
		runs     = flag.Int("runs", 5, "timed executions per point")
		memMB    = flag.Int64("mem-mb", 24, "memory budget in MiB")
		latency  = flag.Duration("latency", 60*time.Microsecond, "simulated I/O latency per miss")
		figure   = flag.Int("fig", 0, "restrict output to one figure (9, 10, 11, or 12); 0 = all")
		explain  = flag.Bool("explain", false, "print the Figure 8 plan for Q2 scale 3 on Chunk6 and exit")
		grouping = flag.Bool("grouping", false, "also run the grouping-query additional test")
	)
	flag.Parse()

	cfg := chunkexp.Config{
		Parents: *parents, ChildrenPerParent: *children,
		MemoryBytes: *memMB << 20, ReadLatency: *latency,
	}

	if *explain {
		in, err := chunkexp.NewChunk(cfg, 6, false)
		check(err)
		check(in.Load())
		sqlText, err := in.RewriteSQL(chunkexp.Q2(3))
		check(err)
		fmt.Println("Transformed SQL (Q2 scale 3 over Chunk6):")
		fmt.Println(sqlText)
		fmt.Println()
		plan, err := in.Explain(chunkexp.Q2(3))
		check(err)
		fmt.Println("Figure 8: physical plan")
		fmt.Print(plan)
		return
	}

	ws, err := parseInts(*widths)
	check(err)
	ss, err := parseInts(*scales)
	check(err)

	type series struct {
		name string
		m    map[int]chunkexp.Measurement // scale -> measurement
	}
	var all []series

	measure := func(in *chunkexp.Instance) series {
		fmt.Fprintf(os.Stderr, "loading %s...\n", in.Name)
		check(in.Load())
		s := series{name: in.Name, m: map[int]chunkexp.Measurement{}}
		for _, scale := range ss {
			q := chunkexp.Q2(scale)
			if *grouping {
				q = chunkexp.Q2Grouping(scale)
			}
			m, err := in.MeasureQ2(q, *runs, int64(1+scale%cfg.Parents))
			check(err)
			s.m[scale] = m
		}
		return s
	}

	conv, err := chunkexp.NewConventional(cfg)
	check(err)
	all = append(all, measure(conv))
	for _, w := range ws {
		in, err := chunkexp.NewChunk(cfg, w, false)
		check(err)
		all = append(all, measure(in))
	}
	var verticals []series
	if *figure == 0 || *figure == 12 {
		for _, w := range ws {
			in, err := chunkexp.NewVertical(cfg, w)
			check(err)
			verticals = append(verticals, measure(in))
		}
	}

	// cells prints one row per configuration, one cell per scale.
	cells := func(title, unit string, cell func(chunkexp.Measurement) string) {
		fmt.Printf("\n%s\n", title)
		fmt.Printf("%-14s", "config")
		for _, scale := range ss {
			fmt.Printf(" %10s", fmt.Sprintf("s=%d", scale))
		}
		fmt.Printf("   [%s]\n", unit)
		for _, s := range all {
			fmt.Printf("%-14s", s.name)
			for _, scale := range ss {
				fmt.Printf(" %10s", cell(s.m[scale]))
			}
			fmt.Println()
		}
	}
	printSeries := func(title, unit string, f func(chunkexp.Measurement) float64) {
		cells(title, unit, func(m chunkexp.Measurement) string { return fmt.Sprintf("%.2f", f(m)) })
	}

	if *figure == 0 || *figure == 9 {
		printSeries("Figure 9: response times with warm cache", "ms", func(m chunkexp.Measurement) float64 {
			return float64(m.WarmTime) / float64(time.Millisecond)
		})
	}
	if *figure == 0 || *figure == 10 {
		// Beside each count, the share of it that is index pages: the
		// paper's "74–80 % of reads are index accesses" as a column.
		cells("Figure 10: logical page reads", "pages, index share", func(m chunkexp.Measurement) string {
			return fmt.Sprintf("%d %2.0f%%", m.LogicalReads, 100*float64(m.IndexReads)/float64(m.LogicalReads))
		})
	}
	if *figure == 0 || *figure == 11 {
		printSeries("Figure 11: response times with cold cache", "ms", func(m chunkexp.Measurement) float64 {
			return float64(m.ColdTime) / float64(time.Millisecond)
		})
		printSeries("Figure 11: physical page reads per cold execution", "pages", func(m chunkexp.Measurement) float64 {
			return float64(m.PhysicalReads)
		})
	}
	if *figure == 0 || *figure == 12 {
		fmt.Printf("\nFigure 12: response-time improvement of Chunk Folding over vertical partitioning [%%]\n")
		fmt.Printf("%-14s", "width")
		for _, scale := range ss {
			fmt.Printf(" %10s", fmt.Sprintf("s=%d", scale))
		}
		fmt.Println()
		for i, w := range ws {
			folded := all[i+1] // after "conventional"
			vert := verticals[i]
			fmt.Printf("%-14d", w)
			for _, scale := range ss {
				fmt.Printf(" %10.1f", chunkexp.Improvement(folded.m[scale], vert.m[scale]))
			}
			fmt.Println()
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
