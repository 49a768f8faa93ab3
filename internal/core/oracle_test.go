package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"paragraph/internal/asm"
	"paragraph/internal/cpu"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// The DDG oracle: an independent statement of the paper's placement rule.
// Every engine in this package places operations through one replay core,
// so engines agreeing with each other proves nothing about the core itself.
// The oracle shares no code with it — no records, no resolver, no operand
// plans, no slot table — and works the way the paper describes the graph
// rather than the way the analyzer computes it: it first builds the
// explicit dynamic dependence graph of a short trace, one vertex per placed
// operation and one edge per dependence, and only then assigns levels by
// longest paths in trace order.
//
// Edges carry one of two weights. A true dependence (RAW) lets the consumer
// begin once the producer's value is available: base(n) >= level(p). A
// storage dependence (WAR, and the WAW spacing to the value's creator) lets
// the overwriter begin only after every consumer of the old value began:
// base(n) >= base(c)+1. Firewalls — a conservative syscall, an operation
// displaced from the instruction window, a stalled branch — constrain every
// later operation: base(n) >= level(f). A value a location held before the
// program began, or a return address bound by a call, is a constant vertex
// at the firewall floor of its first touch. Functional units are assigned by
// greedy earliest fit over explicit per-level counts.

// oracleKind says what an oracle vertex stands for.
type oracleKind uint8

const (
	oracleOp       oracleKind = iota // a placed operation
	oracleSyscall                    // a syscall placed under the conservative policy
	oracleBranch                     // a stalled branch's resolution: a firewall, never placed
	oracleConstant                   // a pre-existing value or a bound return address
)

// oracleNode is one vertex of the explicit graph.
type oracleNode struct {
	kind oracleKind
	top  int64
	// fw counts the firewalls that precede the vertex: it begins at or
	// after the level of every one of them.
	fw int
	// deep, for a syscall, counts the placed vertices before it: a
	// conservative syscall begins after the deepest computation yet seen.
	deep int
	raw  []int // base >= level(p)
	war  []int // base >= base(c)+1
	fu   bool  // occupies a functional unit for top levels

	base, level int64
}

// oracleValue is the value a location holds: its creating vertex and the
// vertices that have consumed it so far.
type oracleValue struct {
	creator   int
	consumers []int
}

// oracleResult is what the oracle compares: the paper's headline metrics and
// the width-1 parallelism profile.
type oracleResult struct {
	ops, syscalls uint64
	criticalPath  int64
	profile       []float64 // operations per level
}

// oracleGraph is the explicit DDG of one trace under one config.
type oracleGraph struct {
	cfg      Config
	nodes    []oracleNode
	fws      []int // firewall vertices, in trace order
	placed   []int // placed vertices, in trace order
	window   []int // placed vertices still in the instruction window
	events   []uint64
	locs     map[uint64]*oracleValue
	syscalls uint64
}

// oracleLatency is Table 1's operation time, or 1 under unit latency.
func oracleLatency(cfg *Config, op isa.Op) int64 {
	if cfg.UnitLatency {
		return 1
	}
	return int64(op.Latency())
}

// oracleRegLoc and oracleWordLoc key the location map.
func oracleRegLoc(r isa.Reg) uint64 { return uint64(r) }
func oracleWordLoc(w uint32) uint64 { return 1<<32 | uint64(w) }
func oracleWords(e *trace.Event) (uint32, uint32) {
	return e.MemAddr >> 2, (e.MemAddr + uint32(e.MemSize) - 1) >> 2
}

// add appends a vertex and returns its id.
func (g *oracleGraph) add(n oracleNode) int {
	g.nodes = append(g.nodes, n)
	return len(g.nodes) - 1
}

// read returns the value a location holds, creating a constant vertex for
// a location the trace has not touched before.
func (g *oracleGraph) read(loc uint64) *oracleValue {
	v := g.locs[loc]
	if v == nil {
		v = &oracleValue{creator: g.add(oracleNode{kind: oracleConstant, fw: len(g.fws)})}
		g.locs[loc] = v
	}
	return v
}

// place adds a placed vertex to the window and the placed list.
func (g *oracleGraph) place(id int, seq uint64) {
	g.placed = append(g.placed, id)
	if g.cfg.WindowSize > 0 {
		g.window = append(g.window, id)
		g.events = append(g.events, seq)
	}
}

// buildOracle builds the explicit DDG of events under cfg. Only the
// perfect and stall branch policies are modelled.
func buildOracle(cfg Config, events []trace.Event) *oracleGraph {
	g := &oracleGraph{cfg: cfg, locs: make(map[uint64]*oracleValue)}
	for i := range events {
		e := &events[i]
		seq := uint64(i)
		// Operations that have left the window are firewalls from here on.
		if w := uint64(cfg.WindowSize); w > 0 {
			for len(g.window) > 0 && g.events[0]+w <= seq {
				g.fws = append(g.fws, g.window[0])
				g.window, g.events = g.window[1:], g.events[1:]
			}
		}
		op := e.Ins.Op
		info := op.Info()
		switch {
		case op == isa.NOP:
		case e.IsSyscall():
			g.syscalls++
			if cfg.Syscalls != SyscallOptimistic {
				id := g.add(oracleNode{kind: oracleSyscall, top: oracleLatency(&cfg, op),
					fw: len(g.fws), deep: len(g.placed)})
				g.place(id, seq)
				g.fws = append(g.fws, id)
			}
		case info.IsJump:
			if d, ok := e.Ins.Dest(); ok {
				g.locs[oracleRegLoc(d)] = &oracleValue{
					creator: g.add(oracleNode{kind: oracleConstant, fw: len(g.fws)})}
			}
		case info.IsBranch:
			if cfg.Branches == BranchStall {
				n := oracleNode{kind: oracleBranch, top: oracleLatency(&cfg, op), fw: len(g.fws)}
				for _, r := range e.Ins.SourceRegs(nil) {
					if r != isa.Zero {
						n.raw = append(n.raw, g.read(oracleRegLoc(r)).creator)
					}
				}
				g.fws = append(g.fws, g.add(n))
			}
		default:
			g.operation(e, seq)
		}
	}
	return g
}

// operation adds the vertex of one placed operation with its RAW edges
// from every source value and, for destinations the config does not
// rename, WAR and WAW edges from every consumer and the creator of the
// value being overwritten.
func (g *oracleGraph) operation(e *trace.Event, seq uint64) {
	cfg := &g.cfg
	info := e.Ins.Op.Info()
	n := oracleNode{kind: oracleOp, top: oracleLatency(cfg, e.Ins.Op), fw: len(g.fws), fu: cfg.FunctionalUnits > 0}

	var srcs []*oracleValue
	for _, r := range e.Ins.SourceRegs(nil) {
		if r != isa.Zero {
			srcs = append(srcs, g.read(oracleRegLoc(r)))
		}
	}
	if info.IsLoad {
		lo, hi := oracleWords(e)
		for w := lo; w <= hi; w++ {
			srcs = append(srcs, g.read(oracleWordLoc(w)))
		}
	}
	for _, v := range srcs {
		n.raw = append(n.raw, v.creator)
	}

	var dsts []uint64
	renamed := cfg.RenameRegisters
	switch {
	case info.WritesRd:
		dsts = append(dsts, oracleRegLoc(e.Ins.Rd))
	case info.WritesRt:
		dsts = append(dsts, oracleRegLoc(e.Ins.Rt))
	case info.WritesHILO && e.Ins.Op == isa.MTHI:
		dsts = append(dsts, oracleRegLoc(isa.HI))
	case info.WritesHILO && e.Ins.Op == isa.MTLO:
		dsts = append(dsts, oracleRegLoc(isa.LO))
	case info.WritesHILO:
		dsts = append(dsts, oracleRegLoc(isa.HI), oracleRegLoc(isa.LO))
	case info.WritesFCC:
		dsts = append(dsts, oracleRegLoc(isa.FCC))
	}
	dsts = slicesDeleteZero(dsts)
	if info.IsStore {
		renamed = cfg.RenameData
		if e.Seg == trace.SegStack {
			renamed = cfg.RenameStack
		}
		lo, hi := oracleWords(e)
		for w := lo; w <= hi; w++ {
			dsts = append(dsts, oracleWordLoc(w))
		}
	}
	if !renamed {
		for _, loc := range dsts {
			if v := g.locs[loc]; v != nil {
				n.war = append(n.war, v.creator)
				n.war = append(n.war, v.consumers...)
			}
		}
	}

	id := g.add(n)
	for _, v := range srcs {
		v.consumers = append(v.consumers, id)
	}
	for _, loc := range dsts {
		g.locs[loc] = &oracleValue{creator: id}
	}
	g.place(id, seq)
}

// slicesDeleteZero drops the hardwired-zero register: writing it creates
// no value.
func slicesDeleteZero(locs []uint64) []uint64 {
	out := locs[:0]
	for _, l := range locs {
		if l != oracleRegLoc(isa.Zero) {
			out = append(out, l)
		}
	}
	return out
}

// levels assigns every vertex its level by longest paths in trace order
// (every edge points backwards in the trace) and returns the metrics.
func (g *oracleGraph) levels() oracleResult {
	units := g.cfg.FunctionalUnits
	busy := make(map[int64]int)
	// floor[k] is the deepest level among the first k firewalls.
	floor := make([]int64, 1, len(g.fws)+1)
	floor[0] = -1
	deepest := make([]int64, 1, len(g.placed)+1)
	deepest[0] = -1
	nextFW, nextPlaced := 0, 0
	var res oracleResult
	counts := make(map[int64]float64)
	for id := range g.nodes {
		n := &g.nodes[id]
		// Firewall and placed prefixes only ever reference earlier
		// vertices, whose levels are final.
		for ; nextFW < len(g.fws) && g.fws[nextFW] < id; nextFW++ {
			floor = append(floor, max(floor[len(floor)-1], g.nodes[g.fws[nextFW]].level))
		}
		for ; nextPlaced < len(g.placed) && g.placed[nextPlaced] < id; nextPlaced++ {
			deepest = append(deepest, max(deepest[len(deepest)-1], g.nodes[g.placed[nextPlaced]].level))
		}
		base := floor[n.fw]
		if n.kind == oracleSyscall {
			base = max(base, deepest[n.deep])
		}
		for _, p := range n.raw {
			base = max(base, g.nodes[p].level)
		}
		for _, c := range n.war {
			base = max(base, g.nodes[c].base+1)
		}
		if n.fu {
			for fits := false; !fits; {
				fits = true
				for l := base + 1; l <= base+n.top; l++ {
					if busy[l] >= units {
						fits = false
						base++
						break
					}
				}
			}
			for l := base + 1; l <= base+n.top; l++ {
				busy[l]++
			}
		}
		n.base, n.level = base, base+n.top
		if n.kind == oracleOp || n.kind == oracleSyscall {
			res.ops++
			counts[n.level]++
			res.criticalPath = max(res.criticalPath, n.level+1)
		}
	}
	res.syscalls = g.syscalls
	for l := int64(0); l < res.criticalPath; l++ {
		res.profile = append(res.profile, counts[l])
	}
	return res
}

// oracleAnalyze runs the oracle over events under cfg.
func oracleAnalyze(cfg Config, events []trace.Event) oracleResult {
	return buildOracle(cfg, events).levels()
}

// oracleConfigs is the oracle's configuration matrix: both syscall
// policies, Table 4's four renaming conditions, windows {0, 1, 2, 7, 64},
// functional units {0, 1, 2, 4}, perfect and stall branches, and Table 1
// against unit latency. Every config collects a profile that stays at
// width 1 on the oracle's short traces.
func oracleConfigs() []Config {
	renames := [][3]bool{{false, false, false}, {true, false, false}, {true, true, false}, {true, true, true}}
	var cfgs []Config
	for _, sys := range []SyscallPolicy{SyscallConservative, SyscallOptimistic} {
		for _, rn := range renames {
			for _, w := range []int{0, 1, 2, 7, 64} {
				for _, fu := range []int{0, 1, 2, 4} {
					for _, br := range []BranchPolicy{BranchPerfect, BranchStall} {
						for _, unit := range []bool{false, true} {
							cfgs = append(cfgs, Config{Syscalls: sys,
								RenameRegisters: rn[0], RenameStack: rn[1], RenameData: rn[2],
								WindowSize: w, FunctionalUnits: fu, Branches: br, UnitLatency: unit,
								Profile: true, ProfileBuckets: 1 << 20})
						}
					}
				}
			}
		}
	}
	return cfgs
}

// oracleEngines runs every engine of the package over events under cfg and
// returns each one's Result by name: Analyzer.Event; Analyzer.Events in
// batches of 1, 3 and all; a whole-trace resolution replayed by a
// Scheduler; shard resolutions spliced with ApplyDelta over 1- to 4-way
// splits; one analyzer alternating Events and ApplyDelta over the same
// splits; and Snapshot/Restore chains over the same cuts, alternating
// in-memory and persisted checkpoints.
func oracleEngines(t testing.TB, cfg Config, events []trace.Event) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	must := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s under %+v: %v", name, cfg, err)
		}
	}

	a := NewAnalyzer(cfg)
	for i := range events {
		must("Event", a.Event(&events[i]))
	}
	out["Event"] = a.MustFinish()

	for _, size := range []int{1, 3, len(events)} {
		a := NewAnalyzer(cfg)
		for lo := 0; lo < len(events); lo += max(size, 1) {
			must("Events", a.Events(events[lo:min(lo+max(size, 1), len(events))]))
		}
		out[fmt.Sprintf("Events/%d", size)] = a.MustFinish()
	}

	s := NewScheduler(cfg)
	r := NewResolver(cfg, s.Apply)
	must("Resolver", r.Events(events))
	must("Resolver", r.Flush())
	res, err := s.Finish(r.Totals())
	must("Scheduler", err)
	out["Scheduler"] = res

	for ways := 1; ways <= 4; ways++ {
		pts := make([]int, ways+1)
		for k := range pts {
			pts[k] = k * len(events) / ways
		}
		a := NewAnalyzer(cfg)
		for k := 0; k < ways; k++ {
			d := NewDeltaResolver(uint64(pts[k]), pts[k+1]-pts[k])
			must("NewDeltaResolver", d.Events(events[pts[k]:pts[k+1]]))
			must("ApplyDelta", a.ApplyDelta(d.Delta()))
		}
		out[fmt.Sprintf("ApplyDelta/%d", ways)] = a.MustFinish()

		a = NewAnalyzer(cfg)
		for k := 0; k < ways; k++ {
			if k%2 == 0 {
				must("mixed Events", a.Events(events[pts[k]:pts[k+1]]))
				continue
			}
			d := NewDeltaResolver(uint64(pts[k]), pts[k+1]-pts[k])
			must("mixed NewDeltaResolver", d.Events(events[pts[k]:pts[k+1]]))
			must("mixed ApplyDelta", a.ApplyDelta(d.Delta()))
		}
		out[fmt.Sprintf("Mixed/%d", ways)] = a.MustFinish()

		a = NewAnalyzer(cfg)
		for k := 0; k < ways; k++ {
			must("chain", a.Events(events[pts[k]:pts[k+1]]))
			cp := a.Snapshot()
			if k%2 == 1 {
				var buf bytes.Buffer
				must("WriteCheckpoint", WriteCheckpoint(&buf, cp))
				cp, err = ReadCheckpoint(&buf)
				must("ReadCheckpoint", err)
			}
			a = cp.Restore()
		}
		out[fmt.Sprintf("Checkpoint/%d", ways)] = a.MustFinish()
	}
	return out
}

// checkOracle holds every engine to the oracle on events under every
// config of cfgs.
func checkOracle(t testing.TB, name string, events []trace.Event, cfgs []Config) {
	t.Helper()
	for _, cfg := range cfgs {
		want := oracleAnalyze(cfg, events)
		for engine, got := range oracleEngines(t, cfg, events) {
			if msg := oracleDiff(got, want); msg != "" {
				t.Fatalf("%s: %s under %+v: %s", name, engine, cfg, msg)
			}
		}
	}
}

// oracleDiff describes how a Result departs from the oracle's, or returns
// "" when they agree.
func oracleDiff(got *Result, want oracleResult) string {
	if got.Operations != want.ops || got.Syscalls != want.syscalls || got.CriticalPath != want.criticalPath {
		return fmt.Sprintf("ops %d syscalls %d critical path %d, oracle %d %d %d",
			got.Operations, got.Syscalls, got.CriticalPath, want.ops, want.syscalls, want.criticalPath)
	}
	if got.ProfileBucketWidth > 1 {
		return fmt.Sprintf("profile bucket width %d, want 1", got.ProfileBucketWidth)
	}
	var prof []float64
	for _, p := range got.Profile {
		prof = append(prof, p.Ops)
	}
	if !equalF(prof, want.profile) {
		return fmt.Sprintf("profile %v, oracle %v", prof, want.profile)
	}
	return ""
}

// TestOracleFigures: the oracle itself reproduces the paper's Figures 1 and
// 2, and every engine agrees with it on both traces under the whole matrix.
func TestOracleFigures(t *testing.T) {
	df := Dataflow(SyscallConservative)
	if got := oracleAnalyze(df, figure1Trace()); got.criticalPath != 4 || !equalF(got.profile, []float64{4, 2, 1, 1}) {
		t.Fatalf("oracle on Figure 1: critical path %d profile %v, want 4 [4 2 1 1]", got.criticalPath, got.profile)
	}
	df.RenameRegisters = false
	if got := oracleAnalyze(df, figure2Trace()); got.criticalPath != 6 || !equalF(got.profile, []float64{2, 1, 2, 1, 1, 1}) {
		t.Fatalf("oracle on Figure 2: critical path %d profile %v, want 6 [2 1 2 1 1 1]", got.criticalPath, got.profile)
	}
	checkOracle(t, "figure 1", figure1Trace(), oracleConfigs())
	checkOracle(t, "figure 2", figure2Trace(), oracleConfigs())
}

// TestOracleRandomTraces holds every engine to the oracle on randomTrace's
// ALU, memory and multiply mix and on richTrace's branches, calls,
// syscalls and NOPs, under the whole matrix.
func TestOracleRandomTraces(t *testing.T) {
	n := 80
	if raceDetectorEnabled {
		n = 40
	}
	for seed := int64(1); seed <= 2; seed++ {
		checkOracle(t, fmt.Sprintf("randomTrace seed %d", seed), randomTrace(rand.New(rand.NewSource(seed)), n), oracleConfigs())
		checkOracle(t, fmt.Sprintf("richTrace seed %d", seed), richTrace(rand.New(rand.NewSource(seed)), n), oracleConfigs())
	}
}

// oracleRegs are the registers a fuzzed program computes in; $t8 and $t9
// are reserved for loop counters and the data base address.
var oracleRegs = []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$s0"}

// oracleProgram assembles a straight-line program with bounded loops from
// fuzz bytes, four per instruction: a kind and three operand bytes. Every
// program ends in an exit syscall, branches go forward or around a loop
// counted down in $t8, and memory operands stay in a 64-byte data array or
// the first words below the stack pointer, so every program terminates
// without faulting.
func oracleProgram(code []byte) string {
	var b strings.Builder
	b.WriteString(".data\narr: .space 64\n.text\nmain: la $t9, arr\n")
	reg := func(x byte) string { return oracleRegs[int(x)%len(oracleRegs)] }
	n := min(len(code)/4, 96)
	for i := 0; i < n; i++ {
		k, x, y, z := code[4*i], code[4*i+1], code[4*i+2], code[4*i+3]
		fmt.Fprintf(&b, "L%d:\n", i)
		switch k % 14 {
		case 0:
			fmt.Fprintf(&b, "add %s, %s, %s\n", reg(x), reg(y), reg(z))
		case 1:
			fmt.Fprintf(&b, "addi %s, %s, %d\n", reg(x), reg(y), int8(z))
		case 2:
			fmt.Fprintf(&b, "lw %s, %d($t9)\n", reg(x), 4*(y%16))
		case 3:
			fmt.Fprintf(&b, "sw %s, %d($t9)\n", reg(x), 4*(y%16))
		case 4:
			fmt.Fprintf(&b, "lw %s, %d($sp)\n", reg(x), -4*(1+int(y%8)))
		case 5:
			fmt.Fprintf(&b, "sw %s, %d($sp)\n", reg(x), -4*(1+int(y%8)))
		case 6:
			fmt.Fprintf(&b, "mult %s, %s\nmflo %s\n", reg(y), reg(z), reg(x))
		case 7:
			fmt.Fprintf(&b, "beq %s, %s, L%d\n", reg(x), reg(y), min(i+1+int(z%3), n))
		case 8:
			b.WriteString("jal sub\n")
		case 9:
			fmt.Fprintf(&b, "move $a0, %s\nli $v0, 1\nsyscall\n", reg(x))
		case 10:
			fmt.Fprintf(&b, "sb %s, %d($t9)\n", reg(x), y%64)
		case 11:
			fmt.Fprintf(&b, "ldc1 $f%d, %d($t9)\nsdc1 $f%d, %d($t9)\n", 2*(x%4), 8*(y%8), 2*(x%4), 8*(z%8))
		case 12:
			fmt.Fprintf(&b, "li $t8, %d\nW%d: add %s, %s, $t8\naddi $t8, $t8, -1\nbgtz $t8, W%d\n", 1+x%4, i, reg(y), reg(z), i)
		case 13:
			b.WriteString("nop\n")
		}
	}
	fmt.Fprintf(&b, "L%d:\nli $v0, 10\nsyscall\nsub: addi $s0, $s0, 1\njr $ra\n", n)
	return b.String()
}

// oracleRun assembles and runs a fuzzed program, returning its trace.
func oracleRun(t testing.TB, code []byte) []trace.Event {
	t.Helper()
	p, err := asm.Assemble(oracleProgram(code))
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, oracleProgram(code))
	}
	var events []trace.Event
	c, err := cpu.New(p, cpu.WithStdout(io.Discard), cpu.WithTrace(trace.SinkFunc(func(e *trace.Event) error {
		events = append(events, *e)
		return nil
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1 << 16); err != nil {
		t.Fatalf("run: %v", err)
	}
	if done, _ := c.Exited(); !done {
		t.Fatal("program did not exit")
	}
	return events
}

// oracleFigureCode encodes Figure 1's computation (figure2 false) or
// Figure 2's, with its reused registers, as a fuzzed program.
func oracleFigureCode(figure2 bool) []byte {
	c, d := byte(2), byte(3) // $t2, $t3
	if figure2 {
		c, d = 0, 1 // $t0, $t1 again: the storage dependences of Figure 2
	}
	return []byte{
		2, 0, 0, 0, // lw $t0, A
		2, 1, 1, 0, // lw $t1, B
		0, 4, 0, 1, // add $t4, $t0, $t1
		2, c, 2, 0, // lw C
		2, d, 3, 0, // lw D
		0, 5, c, d, // add $t5, C, D
		0, 6, 4, 5, // add $t6, $t4, $t5
		3, 6, 4, 0, // sw $t6, S
	}
}

// FuzzOracle holds every engine to the oracle on random programs assembled
// and run on the simulated CPU, under one config of the oracle's matrix
// chosen by the input.
func FuzzOracle(f *testing.F) {
	f.Add(oracleFigureCode(false), uint16(0))
	f.Add(oracleFigureCode(true), uint16(1))
	f.Add(oracleFigureCode(true), uint16(263))
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 4; i++ {
		code := make([]byte, 4*(20+rng.Intn(40)))
		rng.Read(code)
		f.Add(code, uint16(rng.Intn(1<<16)))
	}
	cfgs := oracleConfigs()
	f.Fuzz(func(t *testing.T, code []byte, sel uint16) {
		events := oracleRun(t, code)
		checkOracle(t, "program", events, []Config{cfgs[int(sel)%len(cfgs)]})
	})
}
