package harness

import (
	"fmt"
	"io"
	"slices"

	"paragraph/internal/stats"
)

// RenderTable1 prints the instruction-class operation times.
func RenderTable1(w io.Writer) error {
	t := stats.NewTable("Operation Class", "Steps")
	for _, row := range Table1() {
		t.AddRow(row.Class, row.Steps)
	}
	return t.Render(w)
}

// RenderTable2 prints the benchmark inventory.
func RenderTable2(w io.Writer, rows []Table2Row) error {
	t := stats.NewTable("Benchmark", "Models", "Source Language", "Type", "Instructions In Trace")
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(r.Name, r.Original, "-", "-", "FAILED: "+r.Err)
			continue
		}
		t.AddRow(r.Name, r.Original, r.Language, r.BenchType, stats.FormatInt(int64(r.Instructions)))
	}
	return t.Render(w)
}

// RenderTable3 prints the dataflow-limit table.
func RenderTable3(w io.Writer, rows []Table3Row) error {
	header := []string{"Benchmark", "Syscalls", "Cons CP", "Cons Avail", "Opt CP", "Opt Avail", "Max Error"}
	t := stats.NewTable(header...)
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(failedRow(r.Name, r.Err, len(header))...)
			continue
		}
		t.AddRow(r.Name, stats.FormatInt(int64(r.Syscalls)),
			stats.FormatInt(r.ConsCriticalPath), r.ConsAvailable,
			stats.FormatInt(r.OptCriticalPath), r.OptAvailable,
			fmt.Sprintf("%.2f", r.MaxError))
	}
	return t.Render(w)
}

// RenderTable4 prints the renaming-conditions table.
func RenderTable4(w io.Writer, rows []Table4Row) error {
	header := []string{"Benchmark", "No Renaming", "Regs Renamed", "Regs/Stack Renamed", "Reg/Mem Renamed"}
	t := stats.NewTable(header...)
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(failedRow(r.Name, r.Err, len(header))...)
			continue
		}
		t.AddRow(r.Name, r.NoRenaming, r.Regs, r.RegsStack, r.RegsMem)
	}
	return t.Render(w)
}

// RenderFigure7 prints each profile as an ASCII plot and offers the CSV of
// the series via WriteProfileCSV.
func RenderFigure7(w io.Writer, profiles []ProfileResult) error {
	for _, p := range profiles {
		if p.Err != "" {
			fmt.Fprintf(w, "%s parallelism profile: FAILED: %s\n\n", p.Name, p.Err)
			continue
		}
		title := fmt.Sprintf("%s parallelism profile (critical path %s, available %.2f, bucket %d levels)",
			p.Name, stats.FormatInt(p.CriticalPath), p.Available, p.BucketWidth)
		if err := stats.AsciiPlot(w, title, p.Profile, 24, 56); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteProfileCSV emits one benchmark's Figure-7 series as CSV.
func WriteProfileCSV(w io.Writer, p ProfileResult) error {
	return stats.WriteCSV(w, "level", "operations", p.Profile)
}

// RenderFigure8 prints the window sweep as a table: one row per window
// size, one column per benchmark (percent of total available parallelism).
// A failed benchmark gets no column; its failure is printed below the
// table.
func RenderFigure8(w io.Writer, series []WindowSeries) error {
	good := slices.DeleteFunc(slices.Clone(series), func(s WindowSeries) bool { return s.Err != "" })
	header := []string{"Window"}
	for _, s := range good {
		header = append(header, s.Name)
	}
	t := stats.NewTable(header...)
	for i := 0; len(good) > 0 && i < len(good[0].Points); i++ {
		row := make([]any, 0, len(good)+1)
		win := good[0].Points[i].Window
		if win == 0 {
			row = append(row, "full")
		} else {
			row = append(row, stats.FormatInt(int64(win)))
		}
		for _, s := range good {
			row = append(row, fmt.Sprintf("%.2f%%", s.Points[i].Percent))
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, s := range series {
		if s.Err != "" {
			fmt.Fprintf(w, "%s: FAILED: %s\n", s.Name, s.Err)
		}
	}
	return nil
}

// WriteFigure8CSV emits the sweep as CSV (window, one column per series),
// skipping failed series.
func WriteFigure8CSV(w io.Writer, series []WindowSeries) error {
	good := slices.DeleteFunc(slices.Clone(series), func(s WindowSeries) bool { return s.Err != "" })
	fmt.Fprint(w, "window")
	for _, s := range good {
		fmt.Fprintf(w, ",%s", s.Name)
	}
	fmt.Fprintln(w)
	if len(good) == 0 {
		return nil
	}
	for i := range good[0].Points {
		fmt.Fprintf(w, "%d", good[0].Points[i].Window)
		for _, s := range good {
			fmt.Fprintf(w, ",%g", s.Points[i].Percent)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// failedRow is a table row marking a failed benchmark: its name, "-" in
// the metric columns, and the failure in the last column.
func failedRow(name, err string, columns int) []any {
	row := []any{name}
	for i := 2; i < columns; i++ {
		row = append(row, "-")
	}
	return append(row, "FAILED: "+err)
}

// RenderFunctionalUnits prints the E8 sweep.
func RenderFunctionalUnits(w io.Writer, rows []FURow) error {
	if len(rows) == 0 {
		return nil
	}
	header := []string{"Benchmark"}
	if i := slices.IndexFunc(rows, func(r FURow) bool { return r.Err == "" }); i >= 0 {
		for _, f := range rows[i].Limits {
			if f == 0 {
				header = append(header, "unlimited")
			} else {
				header = append(header, fmt.Sprintf("%d FUs", f))
			}
		}
	}
	t := stats.NewTable(header...)
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(failedRow(r.Name, r.Err, len(header))...)
			continue
		}
		row := make([]any, 0, len(r.Avail)+1)
		row = append(row, r.Name)
		for _, a := range r.Avail {
			row = append(row, a)
		}
		t.AddRow(row...)
	}
	return t.Render(w)
}

// RenderLifetimes prints the E9 distributions.
func RenderLifetimes(w io.Writer, rows []LifetimeRow) error {
	header := []string{"Benchmark", "Values", "Mean Lifetime", "P90 Lifetime", "Max Lifetime",
		"Mean Sharing", "Max Sharing", "Peak Live Words"}
	t := stats.NewTable(header...)
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(failedRow(r.Name, r.Err, len(header))...)
			continue
		}
		t.AddRow(r.Name,
			stats.FormatInt(int64(r.Lifetimes.Count())),
			r.Lifetimes.Mean(),
			stats.FormatInt(r.Lifetimes.Quantile(0.9)),
			stats.FormatInt(r.Lifetimes.Max()),
			r.Sharing.Mean(),
			stats.FormatInt(r.Sharing.Max()),
			stats.FormatInt(int64(r.MaxLiveMemory)))
	}
	return t.Render(w)
}

// RenderBranches prints the E10 branch-model sweep.
func RenderBranches(w io.Writer, rows []BranchRow) error {
	if len(rows) == 0 {
		return nil
	}
	header := []string{"Benchmark"}
	if i := slices.IndexFunc(rows, func(r BranchRow) bool { return r.Err == "" }); i >= 0 {
		for _, p := range rows[i].Policies {
			header = append(header, p.String(), "miss%")
		}
	}
	t := stats.NewTable(header...)
	for _, r := range rows {
		if r.Err != "" {
			t.AddRow(failedRow(r.Name, r.Err, len(header))...)
			continue
		}
		row := make([]any, 0, 2*len(r.Avail)+1)
		row = append(row, r.Name)
		for i := range r.Avail {
			row = append(row, r.Avail[i], fmt.Sprintf("%.1f%%", r.MissRate[i]*100))
		}
		t.AddRow(row...)
	}
	return t.Render(w)
}

// RenderUnroll prints the E7 ablation.
func RenderUnroll(w io.Writer, rows []UnrollRow) error {
	t := stats.NewTable("Benchmark", "Unroll", "Instructions", "Avail (full renaming)", "Avail (regs only)")
	for _, r := range rows {
		t.AddRow(r.Name, r.Factor, stats.FormatInt(int64(r.Instructions)), r.Available, r.AvailRegsOnly)
	}
	return t.Render(w)
}
