package sim

// Tests and benchmarks for the context switch itself — the scheduler
// resuming a processor coroutine for one slice: the SlicesRun count, the
// allocation-freedom of steady-state hand-off and message delivery, what a
// slice's flush visits, the diagnostics a failed run prints, and ns/slice
// under Ocean's access pattern.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// leapStep is how far a leapfrog processor advances per round. It is no
// smaller than any lookahead the tests below configure, so every Advance
// crosses both its peers' next-run times and its domain's window end: each
// round is exactly one slice under either scheduler.
const leapStep = 100

// leapfrog returns Ocean's scheduling pattern in miniature: every processor
// repeatedly advances past all the others, so every Advance is a context
// switch and nothing else (no messages, no statistics).
func leapfrog(rounds int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Advance(stats.Task, leapStep)
		}
	}
}

// windowedEngine returns an n-processor engine on the window scheduler with
// per consecutive processors to a conflict domain.
func windowedEngine(n, per int, lookahead int64) *Engine {
	e := NewEngine(n)
	e.Parallel = true
	e.Lookahead = lookahead
	d := make([]int, n)
	for i := range d {
		d[i] = i / per
	}
	e.SetDomains(d)
	return e
}

// TestSlicesRunCountsTheSchedule pins SlicesRun on a program whose schedule
// can be counted by hand: each of 4 processors is resumed once per round (the
// Advance yields) and once more to return, so 10 rounds are 4*(10+1) slices.
// The windowed engine cuts this program's slices at the same points (see
// leapStep), so it must report the same total; and the count resets per Run.
func TestSlicesRunCountsTheSchedule(t *testing.T) {
	const want = 4 * (10 + 1)
	serial := NewEngine(4)
	windowed := windowedEngine(4, 2, 50)
	for _, e := range []*Engine{serial, windowed} {
		for rerun := 0; rerun < 2; rerun++ {
			e.Run(leapfrog(10))
			if got := e.SlicesRun(); got != want {
				t.Errorf("parallel=%v run %d: SlicesRun = %d, want %d", e.Parallel, rerun, got, want)
			}
		}
	}
	if serial.WindowsRun() != 0 || windowed.WindowsRun() == 0 {
		t.Errorf("WindowsRun serial %d, windowed %d: the second engine did not run windowed",
			serial.WindowsRun(), windowed.WindowsRun())
	}
}

// mallocs returns how many heap objects f allocates.
func mallocs(f func()) int64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return int64(b.Mallocs - a.Mallocs)
}

// TestHandoffDoesNotAllocate checks that a slice costs no heap allocation in
// steady state: two runs of the same engine that differ by more than 10,000
// slices must differ by at most a few dozen mallocs — runtime background
// noise, where one malloc per slice would be 10,000. (A Run's fixed costs,
// the coroutines and the panic channel, cancel.) The windowed case uses a
// lookahead beyond the program's end so both runs are a single window and
// the per-window worker goroutines cancel too.
func TestHandoffDoesNotAllocate(t *testing.T) {
	for _, e := range []*Engine{NewEngine(16), windowedEngine(16, 8, 1<<40)} {
		const short, long = 10, 10 + 10000/16
		e.Run(leapfrog(long)) // warm: grow the ready heap to its working set
		base := mallocs(func() { e.Run(leapfrog(short)) })
		baseSlices, baseWindows := e.SlicesRun(), e.WindowsRun()
		grown := mallocs(func() { e.Run(leapfrog(long)) })
		if d := e.SlicesRun() - baseSlices; d < 10000 {
			t.Fatalf("parallel=%v: runs differ by %d slices, want at least 10000", e.Parallel, d)
		}
		if e.WindowsRun() != baseWindows {
			t.Fatalf("window counts differ: %d vs %d", baseWindows, e.WindowsRun())
		}
		if d := grown - base; d > 50 {
			t.Errorf("parallel=%v: %d more mallocs for 10000 more slices (%d vs %d): hand-off allocates",
				e.Parallel, d, grown, base)
		}
	}
}

// pingPong has processors 0 and 1 exchange a message rounds times; each round
// trip is two sends and two blocked receives.
func pingPong(rounds int) func(*Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if p.ID == 0 {
				p.Send(1, 10, nil)
				p.WaitRecv(stats.Read, "pong")
			} else {
				p.WaitRecv(stats.Read, "ping")
				p.Send(0, 10, nil)
			}
		}
	}
}

// TestSendRecvDoesNotAllocate checks that delivering a message costs no heap
// allocation in steady state, under both schedulers: 10,000 more round trips
// must add at most a few dozen mallocs, where boxing each message once on
// its way into the inbox would add 20,000. Both runs are long enough to fold
// a full batch of depth events, so that buffer's growth cancels. The windowed
// engine's two processors are separate domains a lookahead apart, so every
// message is staged in an outbox and merged at a window boundary, and every
// window has one active domain (no worker goroutine to allocate).
func TestSendRecvDoesNotAllocate(t *testing.T) {
	for _, e := range []*Engine{NewEngine(2), windowedEngine(2, 1, 10)} {
		const short, long = 3000, 13000
		base := mallocs(func() { e.Run(pingPong(short)) })
		grown := mallocs(func() { e.Run(pingPong(long)) })
		if e.Parallel != (e.WindowsRun() > 0) {
			t.Fatalf("parallel=%v ran %d windows", e.Parallel, e.WindowsRun())
		}
		if d := grown - base; d > 50 {
			t.Errorf("parallel=%v: %d more mallocs for %d more round trips (%d vs %d): delivery allocates",
				e.Parallel, d, long-short, grown, base)
		}
	}
}

// TestIdleFlushVisitsNoProcessor checks that the serial scheduler's per-slice
// flush costs nothing when nothing is pending, even with an emit sink
// installed: over 16,000 slices of a program that emits and sends nothing,
// the only processors a flush examines are those of the end-of-run scan.
func TestIdleFlushVisitsNoProcessor(t *testing.T) {
	e := NewEngine(16)
	e.SetEmitFunc(func(int64, int, any) { t.Error("nothing was emitted") })
	e.Run(leapfrog(1000))
	if e.SlicesRun() < 16000 {
		t.Fatalf("SlicesRun = %d, want at least 16000", e.SlicesRun())
	}
	if e.flushVisits > int64(e.NumProcs()) {
		t.Errorf("flushes examined %d processors over %d slices, want only the final scan's %d",
			e.flushVisits, e.SlicesRun(), e.NumProcs())
	}
}

// tracked is a payload whose collection a finalizer reports.
type tracked struct{ _ [64]byte }

// sendTracked sends a freshly allocated tracked payload, keeping no
// reference of its own.
//
//go:noinline
func sendTracked(p *Proc, dst int, collected chan<- struct{}) {
	x := new(tracked)
	runtime.SetFinalizer(x, func(*tracked) { close(collected) })
	p.Send(dst, 10, x)
}

// recvAndDrop receives one message and forgets it.
//
//go:noinline
func recvAndDrop(p *Proc) { p.WaitRecv(stats.Read, "tracked") }

// TestDeliveredPayloadIsCollectable checks that the inbox does not keep a
// delivered message alive: once WaitRecv has returned it and the receiver
// has dropped it, the payload is garbage while the engine is still running,
// because pop zeroes the slot the heap vacates.
func TestDeliveredPayloadIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	e := newTestEngine(2)
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			sendTracked(p, 1, collected)
			return
		}
		recvAndDrop(p)
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-collected:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Error("a delivered message's payload is still reachable from the engine")
	})
}

// TestInboxPopsInKeyOrder cross-checks the inbox heap against a sort on
// (Arrival, sendTime, Src, srcSeq), with ties on every prefix of the key,
// and checks that draining it leaves no message in its backing array.
func TestInboxPopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h msgHeap
	var want []Message
	for i := 0; i < 500; i++ {
		m := Message{Arrival: int64(rng.Intn(8)), sendTime: int64(rng.Intn(4)),
			Src: rng.Intn(4), srcSeq: uint64(i), Payload: i}
		h.push(m)
		want = append(want, m)
	}
	slices.SortFunc(want, func(a, b Message) int {
		for _, d := range []int64{a.Arrival - b.Arrival, a.sendTime - b.sendTime,
			int64(a.Src - b.Src), int64(a.srcSeq) - int64(b.srcSeq)} {
			if d != 0 {
				return int(d)
			}
		}
		return 0
	})
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	for i, m := range h[:cap(h)] {
		if m != (Message{}) {
			t.Fatalf("drained inbox still holds %+v in slot %d", m, i)
		}
	}
}

// explodeInBody panics from a named frame, so the diagnostic's original
// stack can be checked for it.
func explodeInBody(p *Proc) {
	p.Advance(stats.Task, 75)
	panic("boom")
}

// TestFailureDiagnostics checks what a failed run tells its caller, under
// both schedulers: a body panic names the processor, dumps the engine and
// keeps the panicking goroutine's own stack; a deadlock lists where each
// processor blocked.
func TestFailureDiagnostics(t *testing.T) {
	failure := func(parallel bool, body func(*Proc)) string {
		return fmt.Sprint(failedRun(parallel, nil, body))
	}
	wait := func(p *Proc) { p.WaitRecv(stats.Read, fmt.Sprintf("never-%d", p.ID)) }
	for _, parallel := range []bool{false, true} {
		got := failure(parallel, func(p *Proc) {
			if p.ID == 2 {
				explodeInBody(p)
			}
			wait(p)
		})
		for _, want := range []string{
			"sim: processor 2 panicked: boom", `proc  0: blocked now=0 inbox=0 at "never-0"`,
			"proc  2: done", "original stack:", "sim.explodeInBody",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("parallel=%v: body-panic diagnostic lacks %q:\n%s", parallel, want, got)
			}
		}
		got = failure(parallel, wait)
		for _, want := range []string{"sim: deadlock", `at "never-0"`, `at "never-3"`} {
			if !strings.Contains(got, want) {
				t.Errorf("parallel=%v: deadlock diagnostic lacks %q:\n%s", parallel, want, got)
			}
		}
	}
}

// benchLeapfrog reports the engine's cost per context switch on the
// leapfrog pattern. (BenchmarkSerialScheduler* in sched_heap_test.go measure
// the blocked receive path, where a slice also pays for a message.)
func benchLeapfrog(b *testing.B, e *Engine) {
	b.ReportAllocs()
	body := leapfrog(1000)
	var slices int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(body)
		slices += e.SlicesRun()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slices), "ns/slice")
}

func BenchmarkLeapfrog16(b *testing.B) { benchLeapfrog(b, NewEngine(16)) }

// BenchmarkLeapfrog16Windowed runs the same program as four 4-processor
// domains, so a slice also carries its share of the window fork and join.
func BenchmarkLeapfrog16Windowed(b *testing.B) { benchLeapfrog(b, windowedEngine(16, 4, leapStep)) }
