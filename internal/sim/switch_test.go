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
// smaller than any finite lookahead the tests below configure, so every
// Advance crosses both its peers' next-run times and its domain's window end:
// each round is exactly one slice under every layout.
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

// TestSlicesRunCountsTheSchedule pins SlicesRun on a program whose schedule
// can be counted by hand: each of 4 processors is resumed once per round (the
// Advance yields) and once more to return, so 10 rounds are 4*(10+1) slices.
// Every layout cuts this program's slices at the same points (see leapStep),
// inline or on workers, so all report the same total; the count resets per
// Run; and only the one-domain layout runs it as a single window.
func TestSlicesRunCountsTheSchedule(t *testing.T) {
	const want = 4 * (10 + 1)
	eachLayout(t, func(t *testing.T, l layout) {
		e := newTestEngine(4, l)
		for rerun := 0; rerun < 2; rerun++ {
			e.Run(leapfrog(10))
			if got := e.SlicesRun(); got != want {
				t.Errorf("run %d: SlicesRun = %d, want %d", rerun, got, want)
			}
		}
		if one := e.WindowsRun() == 1; one != (l.per == 0) {
			t.Errorf("WindowsRun = %d with %d processors per domain", e.WindowsRun(), l.per)
		}
	})
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
// the coroutines and the panic channel, cancel.) Inline, that holds across
// hundreds of four-domain windows; the workers case uses a lookahead beyond
// the program's end so both runs are a single window and its worker
// goroutine cancels too.
func TestHandoffDoesNotAllocate(t *testing.T) {
	for _, l := range []layout{
		{name: "inline", per: 4, lookahead: leapStep},
		{name: "workers", per: 8, lookahead: 1 << 40, parallel: true},
	} {
		e := newTestEngine(16, l)
		const short, long = 10, 10 + 10000/16
		e.Run(leapfrog(long)) // warm: grow the scratch buffers to their working set
		base := mallocs(func() { e.Run(leapfrog(short)) })
		baseSlices, baseWindows := e.SlicesRun(), e.WindowsRun()
		grown := mallocs(func() { e.Run(leapfrog(long)) })
		if d := e.SlicesRun() - baseSlices; d < 10000 {
			t.Fatalf("%s: runs differ by %d slices, want at least 10000", l.name, d)
		}
		if l.parallel && e.WindowsRun() != baseWindows {
			t.Fatalf("%s: window counts differ: %d vs %d", l.name, baseWindows, e.WindowsRun())
		}
		if d := grown - base; d > 50 {
			t.Errorf("%s: %d more mallocs for 10000 more slices (%d vs %d): hand-off allocates",
				l.name, d, grown, base)
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
// allocation in steady state, inline and with workers: 10,000 more round
// trips must add at most a few dozen mallocs, where boxing each message once
// on its way into the inbox would add 20,000. (The depth buffers are one
// chunk per processor, kept from run to run, so they cancel.) The two
// processors are separate domains a lookahead apart, so every message is
// staged in an outbox and merged at a window boundary, and every window has
// one active domain (no worker goroutine to allocate).
func TestSendRecvDoesNotAllocate(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		e := newTestEngine(2, layout{per: 1, lookahead: 10, parallel: parallel})
		const short, long = 3000, 13000
		base := mallocs(func() { e.Run(pingPong(short)) })
		grown := mallocs(func() { e.Run(pingPong(long)) })
		if e.WindowsRun() < long {
			t.Fatalf("parallel=%v ran %d windows: the messages did not cross a window boundary", parallel, e.WindowsRun())
		}
		if d := grown - base; d > 50 {
			t.Errorf("parallel=%v: %d more mallocs for %d more round trips (%d vs %d): delivery allocates",
				parallel, d, long-short, grown, base)
		}
	}
}

// TestDepthBuffersStayBounded pins what inbox-depth accounting holds: after
// 100,000 round trips no processor buffers more than 1,024 depth events (one
// 256-event chunk in practice; folding at 4,096 grew two 8,192-event buffers,
// and a lone domain, whose window never ends, buffered the whole run), a
// processor that receives nothing buffers nothing, and folding in small
// chunks leaves every peak where the one-domain reference has it. Processor 0
// keeps two round trips in flight — one inside its pair, one across — so the
// peaks are not all 1.
func TestDepthBuffersStayBounded(t *testing.T) {
	const rounds = 50000
	run := func(l layout) (peaks [4]int, e *Engine) {
		e = newTestEngine(4, l)
		e.Run(func(p *Proc) {
			for i := 0; i < rounds; i++ {
				switch p.ID {
				case 0:
					p.Send(1, 10, nil)
					p.Send(2, 60, nil)
					p.WaitRecv(stats.Read, "pong")
					p.WaitRecv(stats.Read, "pong")
				case 1:
					p.WaitRecv(stats.Read, "ping")
					p.Send(0, 110, nil)
				case 2:
					p.WaitRecv(stats.Read, "ping")
					p.Send(0, 60, nil)
				}
			}
		})
		for i := range peaks {
			peaks[i] = e.Proc(i).PeakInboxDepth()
		}
		return peaks, e
	}
	want, _ := run(layouts[0])
	if want != [4]int{2, 1, 1, 0} {
		t.Fatalf("one-domain peaks = %v, want [2 1 1 0]", want)
	}
	eachLayout(t, func(t *testing.T, l layout) {
		peaks, e := run(l)
		if peaks != want {
			t.Errorf("peaks = %v, want the one-domain reference %v", peaks, want)
		}
		for i := 0; i < 3; i++ {
			if c := cap(e.Proc(i).depthPend); c > 1024 {
				t.Errorf("proc %d buffers up to %d depth events after %d round trips, want at most 1024", i, c, 2*rounds)
			}
		}
		if c := cap(e.Proc(3).depthPend); c != 0 {
			t.Errorf("idle proc 3 holds a %d-event depth buffer", c)
		}
	})
}

// TestIdleFlushVisitsNoProcessor checks that the flush is paid per window,
// not per slice, even with an emit sink installed: over 16,000 slices of a
// program that emits and sends nothing, flushes examine the processors once
// per window and once more at the end of the run.
func TestIdleFlushVisitsNoProcessor(t *testing.T) {
	e := newTestEngine(16, layout{per: 4, lookahead: 10 * leapStep})
	e.SetEmitFunc(func(int64, int, any) { t.Error("nothing was emitted") })
	e.Run(leapfrog(1000))
	if e.SlicesRun() < 16000 {
		t.Fatalf("SlicesRun = %d, want at least 16000", e.SlicesRun())
	}
	limit := (e.WindowsRun() + 1) * int64(e.NumProcs())
	if e.flushVisits > limit || limit*5 > e.SlicesRun() {
		t.Errorf("flushes examined %d processors over %d slices and %d windows, want at most %d, a fraction of the slices",
			e.flushVisits, e.SlicesRun(), e.WindowsRun(), limit)
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
	e := newTestEngine(2, layouts[0])
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

// TestFailureDiagnostics checks what a failed run tells its caller, with one
// worker and with several: a body panic names the processor, dumps the engine and
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
// leapfrog pattern.
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

// BenchmarkLeapfrog16 is one 16-processor domain: every pick scans all 16.
func BenchmarkLeapfrog16(b *testing.B) { benchLeapfrog(b, newTestEngine(16, layouts[0])) }

// BenchmarkLeapfrog16Windowed runs the same program as four 4-processor
// domains, so a slice also carries its share of the window (and, with -cpu
// above 1, of the fork and join).
func BenchmarkLeapfrog16Windowed(b *testing.B) {
	benchLeapfrog(b, newTestEngine(16, layout{per: 4, lookahead: leapStep, parallel: true}))
}

// benchPingPong runs a message-heavy program in one domain of procs
// processors: every processor ping-pongs with a partner for rounds exchanges.
// Each receive is one blocked->running transition, i.e. one pick, so the
// benchmark isolates what a domain's width costs: the pick is a scan, which
// is why a domain is meant to be an SMP node and not the machine (256 in one
// domain is the layout nothing in the tree runs).
func benchPingPong(b *testing.B, procs, rounds int) {
	b.ReportAllocs()
	e := newTestEngine(procs, layouts[0])
	st := stats.NewRun(procs)
	for i := 0; i < procs; i++ {
		e.Proc(i).Stats = &st.Procs[i]
	}
	body := func(p *Proc) {
		partner := p.ID ^ 1
		for r := 0; r < rounds; r++ {
			if p.ID&1 == 0 {
				p.Send(partner, 10, r)
				p.WaitRecv(stats.Other, "pong")
			} else {
				p.WaitRecv(stats.Other, "ping")
				p.Send(partner, 10, r)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(body)
	}
}

func BenchmarkPingPong64(b *testing.B)  { benchPingPong(b, 64, 200) }
func BenchmarkPingPong256(b *testing.B) { benchPingPong(b, 256, 200) }
