package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// layout is one way of running a program on the engine: how many consecutive
// processors share a conflict domain (0: all of them), the lookahead between
// domains, and whether the domains of a window get workers. Results must not
// depend on it.
type layout struct {
	name      string
	per       int
	lookahead int64
	parallel  bool
}

// layouts is the table the suite ranges over (eachLayout). The first entry,
// every processor in one cooperative domain, is by runDomain's contract the
// global smallest-(time, ID)-first schedule: the reference the others are
// compared against. The last is the most aggressive windowing possible. Run
// at -cpu 1,4 (make check), Parallel covers both the inline path and real
// workers spread over several OS threads.
var layouts = []layout{
	{name: "one-domain", lookahead: 50},
	{name: "pairs-inline", per: 2, lookahead: 50},
	{name: "pairs-workers", per: 2, lookahead: 50, parallel: true},
	{name: "per-proc-L1", per: 1, lookahead: 1, parallel: true},
}

// domain returns processor i's conflict-domain label.
func (l layout) domain(i int) int {
	if l.per == 0 {
		return 0
	}
	return i / l.per
}

// newTestEngine builds an n-processor engine laid out as l. Bodies that
// share memory across processor contexts need one cooperative domain and
// say so by passing layouts[0].
func newTestEngine(n int, l layout) *Engine {
	e := NewEngine(n)
	e.Parallel, e.Lookahead = l.parallel, l.lookahead
	d := make([]int, n)
	for i := range d {
		d[i] = l.domain(i)
	}
	e.SetDomains(d)
	return e
}

// eachLayout runs f once per entry of layouts, as subtests. Programs run
// this way keep every latency between different processors at or above the
// pair layouts' lookahead unless both ends share a pair.
func eachLayout(t *testing.T, f func(t *testing.T, l layout)) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) { f(t, l) })
	}
}

func TestSingleProcAdvance(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		finish := newTestEngine(1, l).Run(func(p *Proc) {
			p.Advance(stats.Task, 100)
			p.Advance(stats.Task, 50)
		})
		if finish != 150 {
			t.Fatalf("finish = %d, want 150", finish)
		}
	})
}

func TestAdvanceNegativePanics(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on negative advance")
			}
		}()
		newTestEngine(1, l).Run(func(p *Proc) { p.Advance(stats.Task, -1) })
	})
}

func TestMessageLatency(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		var recvAt int64
		newTestEngine(2, l).Run(func(p *Proc) {
			switch p.ID {
			case 0:
				p.Advance(stats.Task, 10)
				p.Send(1, 25, "ping")
			case 1:
				m := p.WaitRecv(stats.Read, "test")
				recvAt = p.Now()
				if m.Payload.(string) != "ping" {
					t.Errorf("payload = %v", m.Payload)
				}
			}
		})
		if recvAt != 35 {
			t.Fatalf("received at %d, want 35 (send 10 + latency 25)", recvAt)
		}
	})
}

func TestMinTimeSchedulingIsDeterministic(t *testing.T) {
	// Three processors append their IDs on each of several steps with
	// distinct advance amounts; the interleaving must follow virtual
	// time exactly, every run. One cooperative domain: the body appends to
	// a shared slice.
	run := func() []int {
		e := newTestEngine(3, layouts[0])
		var order []int
		steps := map[int][]int64{0: {5, 9, 30}, 1: {7, 7, 7}, 2: {1, 1, 100}}
		e.Run(func(p *Proc) {
			for _, c := range steps[p.ID] {
				p.Advance(stats.Task, c)
				order = append(order, p.ID)
			}
		})
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: order differs at %d: %v vs %v", i, j, got, first)
			}
		}
	}
}

func TestSchedulerOrdersByVirtualTime(t *testing.T) {
	// Proc 1 does a tiny step and must run before proc 0's second step
	// even though proc 0 was started first. One cooperative domain: the
	// body appends to a shared slice.
	e := newTestEngine(2, layouts[0])
	var order []struct {
		id int
		at int64
	}
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(stats.Task, 100)
			order = append(order, struct {
				id int
				at int64
			}{0, p.Now()})
		} else {
			p.Advance(stats.Task, 1)
			order = append(order, struct {
				id int
				at int64
			}{1, p.Now()})
		}
	})
	if order[0].id != 1 || order[0].at != 1 {
		t.Fatalf("order = %+v, want proc 1 at time 1 first", order)
	}
}

func TestWaitRecvStallAttribution(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		e := newTestEngine(2, l)
		st := stats.NewRun(2)
		for i := 0; i < 2; i++ {
			e.Proc(i).Stats = &st.Procs[i]
		}
		e.Run(func(p *Proc) {
			if p.ID == 0 {
				p.Advance(stats.Task, 500)
				p.Send(1, 100, "data")
			} else {
				p.WaitRecv(stats.Read, "stall")
			}
		})
		if got := st.Procs[1].TimeBy[stats.Read]; got != 600 {
			t.Fatalf("proc 1 read stall = %d, want 600", got)
		}
	})
}

func TestEarlierMessageShortensWait(t *testing.T) {
	// Proc 2 blocks; proc 0 sends a message arriving at t=1000, then
	// proc 1 sends one arriving at t=200. Proc 2 must wake at 200 and
	// see proc 1's message first.
	eachLayout(t, func(t *testing.T, l layout) {
		var firstSrc int
		var wake int64
		newTestEngine(3, l).Run(func(p *Proc) {
			switch p.ID {
			case 0:
				p.Send(2, 1000, "slow")
			case 1:
				p.Advance(stats.Task, 100)
				p.Send(2, 100, "fast")
			case 2:
				m := p.WaitRecv(stats.Read, "test")
				firstSrc, wake = m.Src, p.Now()
			}
		})
		if firstSrc != 1 || wake != 200 {
			t.Fatalf("first message from %d at %d, want from 1 at 200", firstSrc, wake)
		}
	})
}

func TestTieBreakBySequence(t *testing.T) {
	// Two messages arriving at the same instant are delivered in send
	// order.
	eachLayout(t, func(t *testing.T, l layout) {
		var got []string
		newTestEngine(2, l).Run(func(p *Proc) {
			if p.ID == 0 {
				p.Send(1, 50, "a")
				p.Send(1, 50, "b")
			} else {
				got = append(got, p.WaitRecv(stats.Read, "t").Payload.(string))
				got = append(got, p.WaitRecv(stats.Read, "t").Payload.(string))
			}
		})
		if got[0] != "a" || got[1] != "b" {
			t.Fatalf("delivery order = %v, want [a b]", got)
		}
	})
}

func TestDeadlockDetection(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected deadlock panic")
			}
		}()
		newTestEngine(2, l).Run(func(p *Proc) {
			p.WaitRecv(stats.Read, "forever") // nobody ever sends
		})
	})
}

func TestBodyPanicPropagates(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected body panic to propagate")
			}
		}()
		newTestEngine(2, l).Run(func(p *Proc) {
			if p.ID == 1 {
				panic("boom")
			}
			p.Advance(stats.Task, 10)
		})
	})
}

func TestSelfSend(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		var at int64
		newTestEngine(1, l).Run(func(p *Proc) {
			p.Send(0, 77, "timer")
			p.WaitRecv(stats.Other, "timer")
			at = p.Now()
		})
		if at != 77 {
			t.Fatalf("self-send woke at %d, want 77", at)
		}
	})
}

func TestTryRecvDoesNotAdvance(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		newTestEngine(2, l).Run(func(p *Proc) {
			if p.ID == 0 {
				p.Send(1, 500, "later")
				p.Advance(stats.Task, 1000)
			} else {
				if _, ok := p.TryRecv(); ok {
					t.Error("TryRecv returned an undelivered message")
				}
				p.Advance(stats.Task, 600)
				if _, ok := p.TryRecv(); !ok {
					t.Error("TryRecv missed a delivered message")
				}
			}
		})
	})
}

func TestPendingArrival(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		newTestEngine(2, l).Run(func(p *Proc) {
			if p.ID == 0 {
				p.Send(1, 40, 1)
			} else {
				p.Advance(stats.Task, 1)
				if a, ok := p.PendingArrival(); !ok || a != 40 {
					t.Errorf("PendingArrival = %d,%v want 40,true", a, ok)
				}
			}
		})
	})
}

// Property: for any set of per-processor advance schedules, the global
// completion time equals the maximum per-processor sum, and every
// processor's local clock is monotonic.
func TestQuickCompletionTime(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		f := func(raw [][]uint16) bool {
			if len(raw) == 0 {
				return true
			}
			if len(raw) > 8 {
				raw = raw[:8]
			}
			e := newTestEngine(len(raw), l)
			want := int64(0)
			for _, steps := range raw {
				var sum int64
				for _, s := range steps {
					sum += int64(s % 1000)
				}
				if sum > want {
					want = sum
				}
			}
			// One monotonicity slot per processor: with workers the bodies
			// run concurrently, so they must not share a flag.
			mono := make([]bool, len(raw))
			finish := e.Run(func(p *Proc) {
				last := int64(0)
				ok := true
				for _, s := range raw[p.ID] {
					p.Advance(stats.Task, int64(s%1000))
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
				mono[p.ID] = ok
			})
			if finish != want {
				return false
			}
			for _, ok := range mono {
				if !ok {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: messages between two processors with random latencies are
// always received at send time + latency (when the receiver is idle), and
// in nondecreasing arrival order.
func TestQuickMessageDelivery(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		f := func(lat []uint16) bool {
			if len(lat) == 0 {
				return true
			}
			if len(lat) > 64 {
				lat = lat[:64]
			}
			e := newTestEngine(2, l)
			ok := true
			e.Run(func(p *Proc) {
				if p.ID == 0 {
					for _, x := range lat {
						// Latency at least 1: the per-processor layout's
						// lookahead, which zero-latency sends would
						// violate.
						d := int64(x%1000) + 1
						p.Send(1, d, d)
						p.Advance(stats.Task, 1)
					}
				} else {
					lastArrival := int64(-1)
					for range lat {
						m := p.WaitRecv(stats.Read, "q")
						if m.Arrival < lastArrival || p.Now() < m.Arrival {
							ok = false
						}
						lastArrival = m.Arrival
					}
				}
			})
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}
