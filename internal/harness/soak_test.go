package harness

// The constant-memory soak: a four-config analysis through the resolved
// engine must hold peak heap flat (within 10%) between a 1M-event and a
// 50M-event synthetic trace — a 50× longer trace with the same footprint —
// on both scheduling topologies (the segment ring's four scheduler
// goroutines, and the inline gang), while its results stay deeply equal
// to a streaming (analyzer-fed-directly) pass over the identical event
// stream.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// soakConfigs: four finite-window, non-profiling configurations — each
// analyzer's live state is bounded by its window, so the whole pipeline's
// footprint is trace-length independent once event delivery is too.
func soakConfigs() []core.Config {
	var cfgs []core.Config
	for _, size := range []int{64, 256, 1024, 4096} {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// soakStream emits n deterministic synthetic events (ALU, loads, stores,
// stack traffic, branches, the odd syscall) in batches through emit. The
// fixed seed makes every call produce the identical stream, so the resolved
// runs and the streaming reference analyze the same trace without ever
// materializing it.
func soakStream(n int, emit func([]trace.Event) error) error {
	rng := rand.New(rand.NewSource(43))
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.S0, isa.S1, isa.A0, isa.V0}
	r := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	batch := make([]trace.Event, 0, trace.DefaultBatchEvents)
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(10) {
		case 0, 1, 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: r(), Rs: r(), Imm: int32(rng.Intn(64) - 32)}}
		case 3, 4:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDU, Rd: r(), Rs: r(), Rt: r()}}
		case 5:
			addr := 0x10000000 + uint32(rng.Intn(1<<14))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 6:
			addr := 0x10000000 + uint32(rng.Intn(1<<14))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 7:
			addr := 0x7fff0000 + uint32(rng.Intn(1<<8))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.SP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegStack}
		case 8:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: r(), Rt: isa.Zero, Imm: -16},
				Taken: rng.Intn(2) == 0}
		default:
			if rng.Intn(50) == 0 {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SYSCALL}}
			} else {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LUI, Rt: r(), Imm: int32(rng.Intn(1 << 10))}}
			}
		}
		batch = append(batch, e)
		if len(batch) == cap(batch) {
			if err := emit(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		pc += 4
	}
	if len(batch) > 0 {
		return emit(batch)
	}
	return nil
}

// heapSampler records the peak of runtime.MemStats.HeapAlloc, sampled
// every 5 ms on a background goroutine and on demand through peak.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// startHeapSampler starts sampling. A GC beforehand resets the floor so
// runs are comparable.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.stop:
				return
			default:
				h.sample()
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		p := h.max.Load()
		if ms.HeapAlloc <= p || h.max.CompareAndSwap(p, ms.HeapAlloc) {
			return
		}
	}
}

// peak takes one more sample and returns the highest observed so far.
func (h *heapSampler) peak() uint64 {
	h.sample()
	return h.max.Load()
}

// finish stops the sampler and returns the peak of the whole run.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak()
}

func TestSoakConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("soak: race instrumentation distorts heap accounting")
	}
	cfgs := soakConfigs()

	// resolvedRun analyzes an n-event stream through the resolved engine on
	// one topology. A non-nil progress is called after each batch with the
	// number of events handed to the resolver so far.
	resolvedRun := func(n int, serial bool, progress func(produced int)) []*core.Result {
		produce := func(rs *ResolverStream) error {
			produced := 0
			return soakStream(n, func(b []trace.Event) error {
				if err := rs.Events(b); err != nil {
					return err
				}
				produced += len(b)
				if progress != nil {
					progress(produced)
				}
				return nil
			})
		}
		results, _, err := fanOutResolved(t.Context(), produce, cfgs, 0, serial)
		if err != nil {
			t.Fatalf("resolved run (%d events, serial %v): %v", n, serial, err)
		}
		return results
	}
	// streamRun is the reference: each analyzer fed directly, serially —
	// no ring, no buffering, nothing between generator and analyzer.
	streamRun := func(n int) []*core.Result {
		results := make([]*core.Result, len(cfgs))
		for i, cfg := range cfgs {
			a := core.NewAnalyzer(cfg)
			if err := soakStream(n, a.Events); err != nil {
				t.Fatalf("streaming run (%d events): %v", n, err)
			}
			res, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		return results
	}
	equal := func(n int, name string, got, want []*core.Result) {
		t.Helper()
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%d events, %s topology, config %d: resolved engine diverged from streaming", n, name, i)
			}
		}
	}

	const small, large = 1_000_000, 50_000_000

	// Equivalence at both sizes (the 50× trace is the one where a
	// segment-recycling bug would actually scramble records), and the peak
	// heap at each size per topology. Both peaks come from the one
	// 50M-event run: the fixed seed makes the 1M-event trace a prefix of
	// the 50M-event one, so the peak as the producer passes event 1M is the
	// 1M-event peak, taken over the same warm-up as the 50M-event peak.
	// Peaks of separate runs would each carry their own warm-up garbage
	// (outgrown slot tables), which the collector frees at timing-dependent
	// moments; on this engine's few-MiB footprint identical runs varied by
	// more than the 10% bound.
	smallRef, largeRef := streamRun(small), streamRun(large)
	for _, top := range topologies {
		equal(small, top.name, resolvedRun(small, top.serial, nil), smallRef)

		var peakSmall uint64
		h := startHeapSampler()
		largeGot := resolvedRun(large, top.serial, func(produced int) {
			if peakSmall == 0 && produced >= small {
				peakSmall = h.peak()
			}
		})
		peakLarge := h.finish()
		equal(large, top.name, largeGot, largeRef)

		t.Logf("%s topology peak heap: %d events → %.1f MiB, %d events → %.1f MiB", top.name,
			small, float64(peakSmall)/(1<<20), large, float64(peakLarge)/(1<<20))
		if float64(peakLarge) > float64(peakSmall)*1.10 {
			t.Errorf("%s topology: peak heap grew with trace length: %d bytes at %d events vs %d bytes at %d events (>10%%)",
				top.name, peakLarge, large, peakSmall, small)
		}
		// And a hard absolute ceiling: the segment ring (~1.7 MB) plus
		// four finite-window schedulers fit comfortably under 128 MiB; a
		// recorded buffer alone would need ~1.6 GB for the 50M-event
		// trace.
		const ceiling = 128 << 20
		if peakLarge > ceiling {
			t.Errorf("%s topology: peak heap %d bytes exceeds the %d-byte ceiling at %d events",
				top.name, peakLarge, int64(ceiling), large)
		}
	}
}
