package sim

// Tests for the conservative parallel scheduler and the engine's failure
// paths: serial-vs-parallel equivalence fuzzing, engine reuse, destination
// validation, goroutine cleanup on failed runs, lookahead enforcement,
// serial fallback, and position-exact fences.

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

// pairDomains labels processors into two-member conflict domains:
// {0,1}, {2,3}, ...
func pairDomains(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i / 2
	}
	return d
}

// fenceObs is one fence observation: the caller's k-th fence saw processor
// q's time breakdown as at.
type fenceObs struct {
	k      int
	q      int
	timeBy [stats.NumTimeCategories]int64
}

// runResult captures everything observable about a run, for equivalence
// comparisons between schedulers. fences holds every observation each
// caller's fences made; fence observations land at the fence's cut
// (registration time + lookahead) and are scheduler-exact there (see
// sim.Proc.Fence), so the full log must agree between engines configured
// with the same lookahead.
type runResult struct {
	finish int64
	timeBy [][stats.NumTimeCategories]int64
	peaks  []int
	recvs  [][]string
	emits  []string
	fences [][]fenceObs
}

// runRandomProgram executes a pseudo-random program (advances, sends with
// scheduler-safe latencies, polls, emissions, fences) on the engine and
// returns the observable results. The program is a pure function of seed
// and processor ID, so two engines given the same seed run the same
// program. lookahead must match the engine's cross-domain bound and
// domains must be the pairDomains layout.
func runRandomProgram(e *Engine, seed int64, lookahead int64) runResult {
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
				if dst/2 != p.ID/2 {
					// Cross-domain: respect the lookahead bound.
					lat += lookahead
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
// satisfy within a single run, regardless of scheduler: successive fences
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
// scheduler-exact whenever the two engines share a lookahead.
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

// TestSerialParallelEquivalenceFuzz runs pseudo-random programs under both
// schedulers and requires identical finish times, time breakdowns, peak
// inbox depths, receive logs, emission streams and fence observations —
// the programs place fences at arbitrary positions, not synchronization
// points, and the deferred-cut contract makes even those observations
// scheduler-exact. Both engines carry the same lookahead (the fence cut is
// registration time + lookahead, so it is part of the semantics); only
// Parallel differs. Each run's fence log must also satisfy the append-only
// invariants (checkFenceSanity).
func TestSerialParallelEquivalenceFuzz(t *testing.T) {
	const procs = 6
	const lookahead = 50
	for seed := int64(0); seed < 30; seed++ {
		se := NewEngine(procs)
		se.Lookahead = lookahead
		se.SetDomains(pairDomains(procs))
		sr := runRandomProgram(se, seed, lookahead)

		pe := NewEngine(procs)
		pe.Parallel = true
		pe.Lookahead = lookahead
		pe.SetDomains(pairDomains(procs))
		pr := runRandomProgram(pe, seed, lookahead)

		label := fmt.Sprintf("seed %d", seed)
		checkFenceSanity(t, label+" serial", sr)
		checkFenceSanity(t, label+" parallel", pr)
		compareRuns(t, label, sr, pr)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestEngineReuseIsReproducible reruns the same program on the same engine
// and requires identical results — the regression test for Run leaving
// stale per-run state (historically, the global send sequence counter)
// behind. Exercised under both schedulers.
func TestEngineReuseIsReproducible(t *testing.T) {
	const procs = 4
	const lookahead = 50
	for _, parallel := range []bool{false, true} {
		e := NewEngine(procs)
		e.Parallel = parallel
		e.Lookahead = lookahead
		e.SetDomains(pairDomains(procs))
		first := runRandomProgram(e, 7, lookahead)
		second := runRandomProgram(e, 7, lookahead)
		compareRuns(t, fmt.Sprintf("parallel=%v rerun", parallel), first, second)
	}
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
			e := newTestEngine(2)
			e.Run(func(p *Proc) {
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
	}
}

// failedRun runs body on a 4-processor, two-domain engine under the chosen
// scheduler and returns what Run panicked with (nil if it returned).
func failedRun(parallel bool, emit func(int64, int, any), body func(*Proc)) (r any) {
	defer func() { r = recover() }()
	e := NewEngine(4)
	e.Parallel = parallel
	e.Lookahead = 50
	e.SetDomains(pairDomains(4))
	e.SetEmitFunc(emit)
	e.Run(body)
	return nil
}

// TestFailedRunReleasesGoroutines checks that a failed run leaves no
// processor context behind, under both schedulers and for every way a run
// can fail: a deadlock, a body panic, and a panic on the scheduler's own
// control flow — in the emit function or in a deferred fence callback. The
// last two are not processor failures, so their panic value must reach the
// caller as it was raised, not wrapped as "processor N panicked".
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
}

// TestLookaheadViolationPanics checks that a cross-domain send arriving
// inside the current window is rejected rather than silently reordered.
func TestLookaheadViolationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead violation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
			t.Fatalf("panic %q does not mention the lookahead violation", r)
		}
	}()
	e := NewEngine(2)
	e.Parallel = true
	e.Lookahead = 100
	e.SetDomains([]int{0, 1})
	e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Send(1, 10, "too soon") // arrives at 10, inside [0, 100)
		} else {
			p.WaitRecv(stats.Read, "x")
		}
	})
}

// TestSerialFallback checks the silent fallbacks to the serial scheduler:
// zero lookahead and a single conflict domain must both complete and match
// the results of a plain serial engine with the same lookahead (the
// lookahead is part of the fence semantics, so each fallback is compared
// against a serial reference sharing its value).
func TestSerialFallback(t *testing.T) {
	const procs = 4

	zeroRef := NewEngine(procs)
	zeroRef.SetDomains(pairDomains(procs))
	zeroWant := runRandomProgram(zeroRef, 3, 0)

	zeroL := NewEngine(procs)
	zeroL.Parallel = true
	zeroL.Lookahead = 0
	zeroL.SetDomains(pairDomains(procs))
	compareRuns(t, "zero lookahead", zeroWant, runRandomProgram(zeroL, 3, 0))

	lRef := NewEngine(procs)
	lRef.Lookahead = 50
	lRef.SetDomains([]int{0, 0, 0, 0})
	lWant := runRandomProgram(lRef, 3, 0)

	oneDomain := NewEngine(procs)
	oneDomain.Parallel = true
	oneDomain.Lookahead = 50
	oneDomain.SetDomains([]int{0, 0, 0, 0})
	compareRuns(t, "single domain", lWant, runRandomProgram(oneDomain, 3, 0))
}

// TestFenceObservesCutExactly pins the fence cut to the charge level: a
// fence registered at 120 with lookahead 100 observes the state at the cut
// 220, so of the other processor's charges — a 150-cycle wake lump, then
// sync advances starting at 150, 210 and 260 — it must include exactly the
// ones starting before 220 (150 + 60 + 50 = 260 sync cycles), even though
// the last included advance runs past the cut, and even though under the
// parallel scheduler the other processor races ahead in another domain.
func TestFenceObservesCutExactly(t *testing.T) {
	run := func(parallel bool) int64 {
		e := NewEngine(2)
		e.Parallel = parallel
		e.Lookahead = 100
		e.SetDomains([]int{0, 1})
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
			t.Fatalf("proc 1 final sync = %d, want 300", got)
		}
		return seen
	}
	serial, parallel := run(false), run(true)
	if serial != 260 {
		t.Fatalf("serial fence saw sync=%d, want 260 (charges starting before the cut at 220)", serial)
	}
	if parallel != serial {
		t.Fatalf("parallel fence saw sync=%d, serial saw %d", parallel, serial)
	}
}
