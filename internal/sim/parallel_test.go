package sim

// Tests that results do not depend on the domain layout or the worker count,
// and for the engine's failure paths: layout equivalence fuzzing against the
// one-domain reference, engine reuse, destination validation, goroutine
// accounting, lookahead enforcement, degenerate layouts, and position-exact
// fences.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// fenceObs is one fence observation: the caller's k-th fence saw processor
// q's time breakdown as at.
type fenceObs struct {
	k      int
	q      int
	timeBy [stats.NumTimeCategories]int64
}

// runResult captures everything observable about a run, for equivalence
// comparisons between layouts. fences holds every observation each
// caller's fences made; fence observations land at the fence's cut
// (registration time + lookahead) and are exact there (see sim.Proc.Fence),
// so the full log must agree between engines configured with the same
// lookahead.
type runResult struct {
	finish int64
	timeBy [][stats.NumTimeCategories]int64
	peaks  []int
	recvs  [][]string
	emits  []string
	fences [][]fenceObs
}

// runRandomProgram executes a pseudo-random program (advances, sends,
// polls, emissions, fences) on the engine and returns the observable
// results. The program is a pure function of seed, processor ID and the
// layout l it is written for — sends between l's domains carry at least l's
// lookahead — so two engines given the same seed and l run the same program;
// e must be laid out as l or coarser, with l's lookahead.
func runRandomProgram(e *Engine, seed int64, l layout) runResult {
	n := e.NumProcs()
	res := runResult{
		timeBy: make([][stats.NumTimeCategories]int64, n),
		peaks:  make([]int, n),
		recvs:  make([][]string, n),
		fences: make([][]fenceObs, n),
	}
	e.SetEmitFunc(func(tm int64, proc int, payload any) {
		res.emits = append(res.emits, fmt.Sprintf("%d/%d/%v", tm, proc, payload))
	})
	st := stats.NewRun(n)
	for i := 0; i < n; i++ {
		e.Proc(i).Stats = &st.Procs[i]
	}
	res.finish = e.Run(func(p *Proc) {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(p.ID)*7919))
		fenceK := 0
		for step := 0; step < 60; step++ {
			switch rng.Intn(6) {
			case 0, 1:
				p.Advance(stats.Task, int64(rng.Intn(200)))
			case 2:
				dst := rng.Intn(n)
				lat := int64(rng.Intn(40))
				if l.domain(dst) != l.domain(p.ID) {
					// Cross-domain: respect the lookahead bound.
					lat += l.lookahead
				}
				p.Send(dst, lat, fmt.Sprintf("m%d.%d", p.ID, step))
			case 3:
				if m, ok := p.TryRecv(); ok {
					res.recvs[p.ID] = append(res.recvs[p.ID],
						fmt.Sprintf("%d:%v@%d", m.Src, m.Payload, p.Now()))
				}
				p.Advance(stats.Other, int64(rng.Intn(50)))
			case 4:
				p.Emit(fmt.Sprintf("e%d.%d@%d", p.ID, step, p.Now()))
				p.Advance(stats.Message, int64(rng.Intn(30)))
			case 5:
				if rng.Intn(4) == 0 {
					k := fenceK
					fenceK++
					p.Fence(func(q int, at *stats.Proc) {
						res.fences[p.ID] = append(res.fences[p.ID],
							fenceObs{k: k, q: q, timeBy: at.TimeBy})
					})
				}
				p.Advance(stats.Sync, int64(rng.Intn(60)))
			}
		}
	})
	for i := 0; i < n; i++ {
		res.timeBy[i] = st.Procs[i].TimeBy
		res.peaks[i] = e.Proc(i).PeakInboxDepth()
		// Put each caller's observations in canonical (fence,
		// observed-processor) order. With a nonzero lookahead callbacks
		// resolve in that order already; the inline zero-lookahead path
		// delivers them the same way, so this is belt and braces.
		obs := res.fences[i]
		sort.Slice(obs, func(a, b int) bool {
			if obs[a].k != obs[b].k {
				return obs[a].k < obs[b].k
			}
			return obs[a].q < obs[b].q
		})
	}
	return res
}

// checkFenceSanity verifies the invariants every fence observation must
// satisfy within a single run, regardless of layout: successive fences
// by the same caller observe nondecreasing counters for every processor
// (counters are append-only), and no observation exceeds the processor's
// final counters.
func checkFenceSanity(t *testing.T, label string, res runResult) {
	t.Helper()
	for caller, obs := range res.fences {
		last := make(map[int][stats.NumTimeCategories]int64)
		for _, o := range obs { // sorted by (k, q)
			prev := last[o.q]
			for c, v := range o.timeBy {
				if v > res.timeBy[o.q][c] {
					t.Errorf("%s: caller %d fence %d saw proc %d category %d at %d, beyond final %d",
						label, caller, o.k, o.q, c, v, res.timeBy[o.q][c])
				}
				if v < prev[c] {
					t.Errorf("%s: caller %d fence %d saw proc %d category %d go backwards: %d then %d",
						label, caller, o.k, o.q, c, prev[c], v)
				}
			}
			last[o.q] = o.timeBy
		}
	}
}

// compareRuns requires two runs to be observably identical, including every
// fence observation of every processor — the fence contract makes those
// exact whenever the two engines share a lookahead.
func compareRuns(t *testing.T, label string, s, p runResult) {
	t.Helper()
	if s.finish != p.finish {
		t.Errorf("%s: finish %d vs %d", label, s.finish, p.finish)
	}
	for i := range s.timeBy {
		if s.timeBy[i] != p.timeBy[i] {
			t.Errorf("%s: proc %d time breakdown %v vs %v", label, i, s.timeBy[i], p.timeBy[i])
		}
		if s.peaks[i] != p.peaks[i] {
			t.Errorf("%s: proc %d peak inbox depth %d vs %d", label, i, s.peaks[i], p.peaks[i])
		}
		if fmt.Sprint(s.recvs[i]) != fmt.Sprint(p.recvs[i]) {
			t.Errorf("%s: proc %d receive log differs:\n%v\n%v", label, i, s.recvs[i], p.recvs[i])
		}
		if fmt.Sprint(s.fences[i]) != fmt.Sprint(p.fences[i]) {
			t.Errorf("%s: proc %d fence observations differ:\n%v\n%v", label, i, s.fences[i], p.fences[i])
		}
	}
	if fmt.Sprint(s.emits) != fmt.Sprint(p.emits) {
		t.Errorf("%s: emission streams differ:\n%v\n%v", label, s.emits, p.emits)
	}
}

// reference is the layout a run laid out as l must equal: every processor
// in one domain, with l's lookahead (the fence cut is registration time +
// lookahead, so it is part of the semantics).
func reference(l layout) layout { return layout{lookahead: l.lookahead} }

// TestSerialParallelEquivalenceFuzz runs pseudo-random programs under every
// layout and requires finish times, time breakdowns, peak inbox depths,
// receive logs, emission streams and fence observations identical to the
// one-domain reference's — the programs place fences at arbitrary positions,
// not synchronization points, and the deferred-cut contract makes even those
// observations exact. Each run's fence log must also satisfy the append-only
// invariants (checkFenceSanity).
func TestSerialParallelEquivalenceFuzz(t *testing.T) {
	const procs = 6
	eachLayout(t, func(t *testing.T, l layout) {
		for seed := int64(0); seed < 30; seed++ {
			want := runRandomProgram(newTestEngine(procs, reference(l)), seed, l)
			got := runRandomProgram(newTestEngine(procs, l), seed, l)
			label := fmt.Sprintf("seed %d", seed)
			checkFenceSanity(t, label+" reference", want)
			checkFenceSanity(t, label, got)
			compareRuns(t, label, want, got)
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// TestEngineReuseIsReproducible reruns the same program on the same engine
// and requires identical results — the regression test for Run leaving
// stale per-run state (historically, the global send sequence counter)
// behind.
func TestEngineReuseIsReproducible(t *testing.T) {
	eachLayout(t, func(t *testing.T, l layout) {
		e := newTestEngine(4, l)
		first := runRandomProgram(e, 7, l)
		compareRuns(t, "rerun", first, runRandomProgram(e, 7, l))
	})
}

// TestSendInvalidDestinationPanics checks that Send and SendAt reject
// out-of-range destinations with a diagnostic naming the sender, the
// destination and the processor count.
func TestSendInvalidDestinationPanics(t *testing.T) {
	cases := []struct {
		name   string
		dst    int
		sendAt bool
	}{
		{"send-negative", -1, false},
		{"send-beyond-range", 2, false},
		{"sendat-negative", -3, true},
		{"sendat-beyond-range", 9, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachLayout(t, func(t *testing.T, l layout) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("expected panic on invalid destination")
					}
					msg := fmt.Sprint(r)
					for _, want := range []string{
						"sim:",
						fmt.Sprintf("invalid destination %d", tc.dst),
						"(NumProcs 2)",
					} {
						if !strings.Contains(msg, want) {
							t.Fatalf("panic %q does not mention %q", msg, want)
						}
					}
				}()
				newTestEngine(2, l).Run(func(p *Proc) {
					if p.ID != 0 {
						return
					}
					if tc.sendAt {
						p.SendAt(tc.dst, p.Now()+10, "x")
					} else {
						p.Send(tc.dst, 10, "x")
					}
				})
			})
		})
	}
}

// failedRun runs body on a 4-processor, two-domain engine with one worker
// or several and returns what Run panicked with (nil if it returned).
func failedRun(parallel bool, emit func(int64, int, any), body func(*Proc)) (r any) {
	defer func() { r = recover() }()
	e := newTestEngine(4, layout{per: 2, lookahead: 50, parallel: parallel})
	e.SetEmitFunc(emit)
	e.Run(body)
	return nil
}

// TestFailedRunReleasesGoroutines checks that a failed run leaves no
// processor context behind, with one worker and with several, for every way
// a run can fail: a deadlock, a body panic, and a panic on the scheduler's
// own control flow — in the emit function or in a deferred fence callback.
// The last two are not processor failures, so their panic value must reach
// the caller as it was raised, not wrapped as "processor N panicked". The
// same counting shows that a one-worker run is the caller's goroutine and
// the processor coroutines, nothing else.
func TestFailedRunReleasesGoroutines(t *testing.T) {
	errEmit, errFence := errors.New("emit boom"), errors.New("fence boom")
	park := func(p *Proc) {
		p.Advance(stats.Task, int64(10*(p.ID+1)))
		p.WaitRecv(stats.Read, "never")
	}
	// work keeps every processor mid-body when the control flow panics.
	work := func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Advance(stats.Task, 30)
		}
	}
	cases := []struct {
		name string
		emit func(int64, int, any)
		body func(*Proc)
		want any // exact panic value, or nil for an engine diagnostic string
	}{
		{name: "deadlock", body: park},
		{name: "body-panic", body: func(p *Proc) {
			if p.ID == 2 {
				p.Advance(stats.Task, 75)
				panic("boom")
			}
			park(p)
		}},
		{name: "emit-panic", want: errEmit,
			emit: func(int64, int, any) { panic(errEmit) },
			body: func(p *Proc) {
				p.Emit("x")
				work(p)
			}},
		{name: "fence-panic", want: errFence, body: func(p *Proc) {
			if p.ID == 1 {
				p.Fence(func(int, *stats.Proc) { panic(errFence) })
			}
			work(p)
		}},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tc.name, parallel), func(t *testing.T) {
				before := runtime.NumGoroutine()
				got := failedRun(parallel, tc.emit, tc.body)
				if _, isDiag := got.(string); tc.want == nil && !isDiag {
					t.Errorf("Run panicked with %v, want an engine diagnostic", got)
				} else if tc.want != nil && got != tc.want {
					t.Errorf("Run panicked with %v, want %v unwrapped", got, tc.want)
				}
				// Run stops the coroutines before the panic leaves it, so
				// the count should already be back; allow a brief settle
				// for the runtime to retire exiting goroutines.
				var after int
				for i := 0; i < 100; i++ {
					if after = runtime.NumGoroutine(); after <= before {
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
				t.Fatalf("goroutines leaked by the failed run: %d before, %d after", before, after)
			})
		}
	}
	t.Run("one-worker-starts-none", func(t *testing.T) {
		before := runtime.NumGoroutine()
		var during [4]int
		failedRun(false, nil, func(p *Proc) {
			work(p)
			during[p.ID] = runtime.NumGoroutine() // windows of two active domains
			work(p)
		})
		for id, n := range during {
			if n != before+len(during) {
				t.Errorf("proc %d saw %d goroutines mid-run, want the %d before plus %d coroutines",
					id, n, before, len(during))
			}
		}
	})
}

// TestLookaheadViolationPanics checks that a cross-domain send arriving
// inside the current window is rejected rather than silently reordered,
// whether the window's domains run inline or on workers.
func TestLookaheadViolationPanics(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%v: expected lookahead violation panic", parallel)
				}
				if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
					t.Fatalf("parallel=%v: panic %q does not mention the lookahead violation", parallel, r)
				}
			}()
			e := newTestEngine(2, layout{per: 1, lookahead: 100, parallel: parallel})
			e.Run(func(p *Proc) {
				if p.ID == 0 {
					p.Send(1, 10, "too soon") // arrives at 10, inside [0, 100)
				} else {
					p.WaitRecv(stats.Read, "x")
				}
			})
		}()
	}
}

// TestDegenerateLayoutsRunInOneWindow checks that inputs with nothing to
// window collapse instead of forking: zero lookahead (whatever the labels)
// and a single conflict domain, with or without Parallel, run a fence-free
// program as one window and match the plain one-domain engine with the same
// lookahead on the fuzz program.
func TestDegenerateLayoutsRunInOneWindow(t *testing.T) {
	for _, l := range []layout{
		{name: "zero-lookahead", per: 2},
		{name: "zero-lookahead-parallel", per: 2, parallel: true},
		{name: "one-domain-parallel", lookahead: 50, parallel: true},
	} {
		e := newTestEngine(4, l)
		want := runRandomProgram(newTestEngine(4, reference(l)), 3, reference(l))
		compareRuns(t, l.name, want, runRandomProgram(e, 3, reference(l)))
		e.Run(leapfrog(10))
		if e.WindowsRun() != 1 {
			t.Errorf("%s: %d windows, want 1", l.name, e.WindowsRun())
		}
	}
}

// TestFenceObservesCutExactly pins the fence cut to the charge level: a
// fence registered at 120 with lookahead 100 observes the state at the cut
// 220, so of the other processor's charges — a 150-cycle wake lump, then
// sync advances starting at 150, 210 and 260 — it must include exactly the
// ones starting before 220 (150 + 60 + 50 = 260 sync cycles), even though
// the last included advance runs past the cut, and even though with workers
// the other processor races ahead in another domain.
func TestFenceObservesCutExactly(t *testing.T) {
	for _, l := range []layout{
		{name: "one-domain", lookahead: 100},
		{name: "two-domains-inline", per: 1, lookahead: 100},
		{name: "two-domains-workers", per: 1, lookahead: 100, parallel: true},
	} {
		e := newTestEngine(2, l)
		st := stats.NewRun(2)
		for i := 0; i < 2; i++ {
			e.Proc(i).Stats = &st.Procs[i]
		}
		var seen int64
		e.Run(func(p *Proc) {
			if p.ID == 1 {
				p.SendAt(1, 150, "wake")
				p.WaitRecv(stats.Sync, "self") // lump [0,150) recorded at 150
				p.Advance(stats.Sync, 60)      // starts 150 < 220: included
				p.Advance(stats.Sync, 50)      // starts 210 < 220: included
				p.Advance(stats.Sync, 40)      // starts 260 >= 220: excluded
				return
			}
			p.Advance(stats.Task, 120)
			p.Fence(func(q int, at *stats.Proc) {
				if q == 1 {
					seen = at.TimeBy[stats.Sync]
				}
			})
		})
		if got := st.Procs[1].TimeBy[stats.Sync]; got != 300 {
			t.Fatalf("%s: proc 1 final sync = %d, want 300", l.name, got)
		}
		if seen != 260 {
			t.Fatalf("%s: fence saw sync=%d, want 260 (charges starting before the cut at 220)", l.name, seen)
		}
	}
}

// TestFenceStopsLoneDomainAtTheCut covers the one place a window's end moves
// while it runs. A lone domain's window is unbounded, so when processor 0
// registers a fence at 100 (cut 150, lookahead 50) its three peers, advancing
// 7 cycles at a time, are scheduled far beyond the cut unless the fence
// lowers the window's end: the callback must see exactly their 22 charges
// starting before 150 (0, 7, ..., 147), not the 100 of the whole run.
func TestFenceStopsLoneDomainAtTheCut(t *testing.T) {
	e := newTestEngine(4, layouts[0])
	st := stats.NewRun(4)
	for i := 0; i < 4; i++ {
		e.Proc(i).Stats = &st.Procs[i]
	}
	var seen [4]int64
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(stats.Task, 100)
			p.Fence(func(q int, at *stats.Proc) { seen[q] = at.TimeBy[stats.Task] })
			p.Advance(stats.Task, 500) // starts at 100 < 150: included
			return
		}
		for i := 0; i < 100; i++ {
			p.Advance(stats.Task, 7)
		}
	})
	if want := [4]int64{600, 22 * 7, 22 * 7, 22 * 7}; seen != want {
		t.Fatalf("fence at cut 150 saw task cycles %v, want %v", seen, want)
	}
}
