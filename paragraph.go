// Package paragraph reproduces "Dynamic Dependency Analysis of Ordinary
// Programs" (Austin & Sohi, ISCA 1992): a methodology and tool — Paragraph —
// for constructing and analyzing the dynamic dependency graph (DDG) of an
// ordinary program from a serial execution trace.
//
// This package is the public face of the reproduction. It re-exports the
// analyzer (internal/core), the trace format (internal/trace), and the
// substrates that stand in for the paper's unreproducible environment: a
// MIPS-like ISA with the paper's Table-1 latencies (internal/isa), an
// assembler (internal/asm), a CPU simulator that plays the role of the
// Pixie tracer (internal/cpu), a compiler for the MiniC imperative language
// standing in for the MIPS -O3 C/FORTRAN compilers (internal/minic), ten
// SPEC'89-analogue workloads (internal/workloads), and the experiment
// harness that regenerates the paper's tables and figures
// (internal/harness).
//
// # Quick start
//
//	prog, err := paragraph.CompileMiniC(src, paragraph.CompileOptions{})
//	...
//	res, err := paragraph.AnalyzeProgram(prog, paragraph.DataflowConfig(paragraph.SyscallConservative), 0)
//	...
//	fmt.Printf("critical path %d, available parallelism %.1f\n",
//		res.CriticalPath, res.Available)
//
// Or analyze a stored trace:
//
//	res, err := paragraph.AnalyzeTraceFile(f, cfg)
//
// The runnable programs under examples/ and the CLI tools under cmd/ show
// the full surface; cmd/specrun regenerates every table and figure of the
// paper's evaluation.
package paragraph

import (
	"context"
	"fmt"
	"io"

	"paragraph/internal/asm"
	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// Core analysis types.
type (
	// Config carries the paper's analysis switches: system-call policy,
	// renaming of registers / stack / non-stack memory, instruction
	// window size, and functional-unit limits.
	Config = core.Config
	// Result carries the metrics of one analysis: critical path,
	// available parallelism, parallelism profile, and optional
	// value-lifetime and sharing distributions.
	Result = core.Result
	// Analyzer consumes a serial trace event by event or in batches (it
	// implements TraceSink) and produces a Result from Finish. It is a
	// resolver feeding its own schedule: each event is compiled into a
	// dependence record, and the records are replayed every 1024 events
	// by the same placement core that schedules multi-config runs.
	Analyzer = core.Analyzer
	// SyscallPolicy selects the conservative (firewall) or optimistic
	// (ignore) treatment of system calls.
	SyscallPolicy = core.SyscallPolicy
)

// System-call policies.
const (
	SyscallConservative = core.SyscallConservative
	SyscallOptimistic   = core.SyscallOptimistic
)

// BranchPolicy models control dependencies (extension E10): perfect
// prediction, a firewall after every branch, or firewalls on the
// mispredictions of a static or two-bit predictor.
type BranchPolicy = core.BranchPolicy

// Branch policies.
const (
	BranchPerfect = core.BranchPerfect
	BranchStall   = core.BranchStall
	BranchStatic  = core.BranchStatic
	BranchTwoBit  = core.BranchTwoBit
)

// Trace plumbing.
type (
	// TraceEvent is one dynamically executed instruction.
	TraceEvent = trace.Event
	// TraceSink consumes a stream of trace events.
	TraceSink = trace.Sink
	// TraceWriter stores a trace in the compact binary file format.
	TraceWriter = trace.Writer
	// TraceReader reads a stored trace.
	TraceReader = trace.Reader
)

// Substrate types.
type (
	// Program is an assembled, loadable memory image.
	Program = asm.Program
	// Machine is the CPU simulator executing a Program.
	Machine = cpu.CPU
	// Workload is one of the ten SPEC'89-analogue benchmarks.
	Workload = workloads.Workload
	// Suite runs the paper's experiments over the workloads.
	Suite = harness.Suite
	// CompileOptions configures the MiniC compiler (loop unrolling,
	// constant folding).
	CompileOptions = minic.Options
)

// NewAnalyzer creates a DDG analyzer with the given configuration.
func NewAnalyzer(cfg Config) *Analyzer { return core.NewAnalyzer(cfg) }

// DataflowConfig returns the paper's upper-bound configuration: all
// renaming enabled, unlimited window and functional units, profile
// collection on.
func DataflowConfig(p SyscallPolicy) Config { return core.Dataflow(p) }

// CompileMiniC compiles MiniC source all the way to a loadable program.
func CompileMiniC(src string, opts CompileOptions) (*Program, error) {
	return minic.Build(src, opts)
}

// CompileMiniCToAsm compiles MiniC source to assembly text.
func CompileMiniCToAsm(src string, opts CompileOptions) (string, error) {
	return minic.Compile(src, opts)
}

// Assemble assembles MIPS-like assembly text into a loadable program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewMachine loads a program into a fresh simulated CPU. Options from the
// cpu package (trace sink, stdout, stdin, basic-block profiling) apply.
func NewMachine(p *Program, opts ...cpu.Option) (*Machine, error) {
	return cpu.New(p, opts...)
}

// WithTraceSink attaches a trace sink to a Machine; each executed
// instruction is delivered as a TraceEvent. The Machine reuses one event's
// storage for every instruction, so the pointer is valid only during the
// call: a sink that keeps an event must copy *e.
func WithTraceSink(s TraceSink) cpu.Option { return cpu.WithTrace(s) }

// WithStdout redirects the simulated program's output.
func WithStdout(w io.Writer) cpu.Option { return cpu.WithStdout(w) }

// AnalyzeProgram executes a program on the simulator, streaming its trace
// straight into a DDG analyzer, and returns the analysis. maxInstr caps the
// trace length (0 = run to completion).
func AnalyzeProgram(p *Program, cfg Config, maxInstr uint64) (*Result, error) {
	a := core.NewAnalyzer(cfg)
	m, err := cpu.New(p, cpu.WithTrace(a))
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(maxInstr); err != nil && err != cpu.ErrLimit {
		return nil, err
	}
	return a.Finish()
}

// AnalyzeTraceFile reads a stored binary trace and analyzes it.
func AnalyzeTraceFile(r io.Reader, cfg Config) (*Result, error) {
	return AnalyzeTraceFileOpts(r, cfg, AnalyzeOptions{})
}

// AnalyzeOptions carries fault-tolerance switches for trace-file analysis.
type AnalyzeOptions struct {
	// Degraded reads v2 traces in graceful-degradation mode: damaged
	// chunks are skipped and accounted in Skipped instead of aborting.
	Degraded bool
	// Stats, when non-nil, receives the reader's skip accounting (valid
	// chunks, skipped chunks/events, resync distance) on return.
	Stats *TraceReadStats
}

// TraceReadStats re-exports the trace reader's degradation accounting.
type TraceReadStats = trace.ReadStats

// AnalyzeTraceFileOpts reads a stored binary trace and analyzes it with
// explicit fault-tolerance options.
func AnalyzeTraceFileOpts(r io.Reader, cfg Config, opts AnalyzeOptions) (*Result, error) {
	tr, err := trace.NewReaderOpts(r, trace.ReaderOptions{Degraded: opts.Degraded})
	if err != nil {
		return nil, err
	}
	a := core.NewAnalyzer(cfg)
	if err := tr.ForEachBatch(a.Events); err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		*opts.Stats = tr.Stats()
	}
	return a.Finish()
}

// AnalyzeTraceFileTwoPass analyzes a stored trace with the paper's
// Method-1 memory optimization: a discovery pass finds every value's last
// use, so the analysis pass can evict dead values immediately instead of
// waiting for their storage to be reused. Metrics are identical to
// AnalyzeTraceFile; Result.MaxLiveMemoryWords — the working set that cost
// the paper 32 MB — is what shrinks.
func AnalyzeTraceFileTwoPass(rs io.ReadSeeker, cfg Config) (*Result, error) {
	return core.AnalyzeTwoPass(rs, cfg)
}

// TwoPassOptions configures AnalyzeTraceFileTwoPassOpts: degraded reads over
// damaged traces, periodic checkpoints, and skip accounting.
type TwoPassOptions = core.TwoPassOptions

// Checkpoint is a resumable snapshot of an in-progress two-pass analysis.
type Checkpoint = core.Checkpoint

// AnalyzeTraceFileTwoPassOpts is AnalyzeTraceFileTwoPass with
// fault-tolerance options. For cancellation, call core.AnalyzeTwoPassOpts
// with a context directly.
func AnalyzeTraceFileTwoPassOpts(rs io.ReadSeeker, cfg Config, opts TwoPassOptions) (*Result, error) {
	return core.AnalyzeTwoPassOpts(context.Background(), rs, cfg, opts)
}

// ResumeTraceFileTwoPass continues an interrupted two-pass analysis from a
// checkpoint; the result matches an uninterrupted run.
func ResumeTraceFileTwoPass(rs io.ReadSeeker, cp *Checkpoint, opts TwoPassOptions) (*Result, error) {
	return core.ResumeTwoPass(context.Background(), rs, cp, opts)
}

// Error taxonomy of the fault-tolerant pipeline, re-exported so callers can
// classify failures with errors.Is/errors.As against the public package
// alone.
var (
	ErrTraceBadMagic  = trace.ErrBadMagic
	ErrTraceVersion   = trace.ErrVersion
	ErrTraceTruncated = trace.ErrTruncated
	ErrTraceChecksum  = trace.ErrChecksum
	ErrBadEvent       = core.ErrBadEvent
)

type (
	// CorruptChunkError identifies a damaged v2 trace chunk (index,
	// offset, cause); returned by trace reading in fail-fast mode.
	CorruptChunkError = trace.CorruptChunkError
	// AnalysisError wraps an analyzer-internal failure with the index of
	// the event that triggered it.
	AnalysisError = core.AnalysisError
)

// WriteTrace executes a program and stores its trace in the binary format,
// returning the number of events written. maxInstr of 0 runs to completion.
func WriteTrace(p *Program, w io.Writer, maxInstr uint64) (uint64, error) {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return 0, err
	}
	m, err := cpu.New(p, cpu.WithTrace(tw))
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(maxInstr); err != nil && err != cpu.ErrLimit {
		return 0, err
	}
	return tw.Count(), tw.Flush()
}

// Workloads returns the ten SPEC'89-analogue benchmarks.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName finds a workload by analogue name ("matrixx") or by the
// SPEC benchmark it models ("matrix300").
func WorkloadByName(name string) (*Workload, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("paragraph: unknown workload %q", name)
	}
	return w, nil
}

// NewSuite creates an experiment suite over all workloads at the given
// scale (1 = seconds-per-experiment default).
func NewSuite(scale int) *Suite { return harness.NewSuite(scale) }
