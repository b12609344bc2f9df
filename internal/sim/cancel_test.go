package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// TestPendingVsLiveAfterCancelStorm pins what a cancel storm leaves
// behind: Pending still counts cancelled-but-undrained heap entries
// (Cancel is O(1) and leaves the slot queued), Live reports each
// handle exactly, double cancels are harmless, and the drain fires
// exactly the survivors in schedule order.
func TestPendingVsLiveAfterCancelStorm(t *testing.T) {
	e := NewEngine()
	const n = 1000
	evs := make([]Event, 0, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		evs = append(evs, e.Schedule(units.Time(i+1)*units.Nanosecond, func() { fired = append(fired, i) }))
	}
	if e.Pending() != n {
		t.Fatalf("after scheduling: Pending=%d, want %d", e.Pending(), n)
	}
	// Cancel a deterministic 80% storm, including double-cancels.
	rng := rand.New(rand.NewSource(7))
	var survivors []int
	survives := make([]bool, n)
	for i, ev := range evs {
		if rng.Intn(5) == 0 {
			survivors = append(survivors, i)
			survives[i] = true
			continue
		}
		e.Cancel(ev)
		if i%3 == 0 {
			e.Cancel(ev) // double cancel must stay a no-op
		}
	}
	for i, ev := range evs {
		if e.Live(ev) != survives[i] {
			t.Fatalf("after storm: Live(ev %d)=%v, want %v", i, e.Live(ev), survives[i])
		}
	}
	if e.Pending() != n {
		t.Fatalf("after storm: Pending=%d, want %d (cancelled entries stay queued until drained)", e.Pending(), n)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("after drain: Pending=%d, want 0", e.Pending())
	}
	if len(fired) != len(survivors) {
		t.Fatalf("fired %d callbacks, want the %d survivors", len(fired), len(survivors))
	}
	for k := range fired {
		if fired[k] != survivors[k] {
			t.Fatalf("callback %d was event %d, want survivor %d", k, fired[k], survivors[k])
		}
	}
	if int(e.Fired()) != len(survivors) {
		t.Fatalf("Fired=%d, want %d live events", e.Fired(), len(survivors))
	}
	for i, ev := range evs {
		if e.Live(ev) {
			t.Fatalf("Live(ev %d) after drain", i)
		}
	}
}

// TestCancelNestedAndRequeue cancels and schedules from inside a
// firing event: the victim stops being live at once but stays queued
// until drained, and only the nested event fires.
func TestCancelNestedAndRequeue(t *testing.T) {
	e := NewEngine()
	var victim, nested Event
	nestedFired := false
	victim = e.Schedule(100*units.Nanosecond, func() { t.Error("victim fired despite cancel") })
	e.Schedule(10*units.Nanosecond, func() {
		e.Cancel(victim)
		nested = e.Schedule(5*units.Nanosecond, func() { nestedFired = true })
		if e.Live(victim) || !e.Live(nested) {
			t.Errorf("inside event: Live(victim)=%v Live(nested)=%v, want false/true", e.Live(victim), e.Live(nested))
		}
		if e.Pending() != 2 {
			t.Errorf("inside event: Pending=%d, want 2 (cancelled victim still queued, one nested)", e.Pending())
		}
	})
	e.Run()
	if !nestedFired {
		t.Fatal("nested event never fired")
	}
	if e.Pending() != 0 || e.Fired() != 2 {
		t.Fatalf("after Run: Pending=%d Fired=%d, want 0/2", e.Pending(), e.Fired())
	}
}

// TestStaleHandleCancelIsNoOp is the generation-reuse property: once an
// event fires, its slot can be reused by a later schedule. Cancelling
// the stale handle must not touch the new occupant.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := false
	stale := e.Schedule(units.Nanosecond, func() {})
	e.Run() // slot freed, handle now stale

	fresh := e.Schedule(units.Nanosecond, func() { fired = true })
	if fresh.idx != stale.idx {
		t.Fatalf("free-list did not reuse slot %d (got %d); test harness assumption broken", stale.idx, fresh.idx)
	}
	e.Cancel(stale) // stale generation: must be a no-op
	if e.Live(stale) {
		t.Fatal("stale handle reports live after its slot was reused")
	}
	if !e.Live(fresh) || e.Pending() != 1 {
		t.Fatalf("stale cancel disturbed the new occupant: Live=%v Pending=%d", e.Live(fresh), e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event never fired after stale cancel")
	}
}

// TestGenerationReuseProperty drives a randomized schedule/fire/cancel
// interleaving and checks the engine's bookkeeping invariants hold no
// matter how handles go stale.
func TestGenerationReuseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type tracked struct {
			ev    Event
			fired *bool
			dead  bool // cancelled while live
		}
		var handles []tracked
		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				f := new(bool)
				ev := e.Schedule(units.Time(rng.Intn(50))*units.Nanosecond, func() { *f = true })
				handles = append(handles, tracked{ev: ev, fired: f})
			case 2: // cancel a random handle, possibly stale
				if len(handles) == 0 {
					continue
				}
				h := &handles[rng.Intn(len(handles))]
				if e.Live(h.ev) {
					h.dead = true
				}
				e.Cancel(h.ev) // stale/dead handles: must be a no-op
			case 3: // fire a few events, making handles stale
				for k := 0; k < rng.Intn(4); k++ {
					if !e.Step() {
						break
					}
				}
			}
			// Invariant: Live agrees with the tracked state of every
			// handle, and the live set fits in the queue.
			liveWant := 0
			for i := range handles {
				want := !handles[i].dead && !*handles[i].fired
				if e.Live(handles[i].ev) != want {
					t.Logf("seed %d step %d: Live(handle %d)=%v, want %v", seed, step, i, !want, want)
					return false
				}
				if want {
					liveWant++
				}
			}
			if liveWant > e.Pending() {
				t.Logf("seed %d step %d: %d live handles exceed Pending %d", seed, step, liveWant, e.Pending())
				return false
			}
		}
		e.Run()
		for i := range handles {
			if handles[i].dead && *handles[i].fired {
				t.Logf("seed %d: cancelled event fired", seed)
				return false
			}
			if !handles[i].dead && !*handles[i].fired {
				t.Logf("seed %d: live event never fired", seed)
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStaleHandleCancel feeds arbitrary operation tapes into the engine
// and checks that cancelling recycled or forged handles can never fire
// the wrong event or suppress the right one. Each input byte encodes
// one operation; handles deliberately outlive their events.
func FuzzStaleHandleCancel(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 2, 1, 1})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3})
	f.Add([]byte("010\x03")) // forged generation equals the reused slot's
	f.Fuzz(func(t *testing.T, tape []byte) {
		e := NewEngine()
		var handles []Event
		cancelled := make(map[int]bool)
		firedBy := make(map[int]*bool)
		for i, op := range tape {
			if i > 4096 {
				break
			}
			switch op % 4 {
			case 0: // schedule
				id := len(handles)
				fl := new(bool)
				firedBy[id] = fl
				delay := units.Time(op/4) * units.Nanosecond
				handles = append(handles, e.Schedule(delay, func() { *fl = true }))
			case 1: // step
				e.Step()
			case 2: // cancel handle picked by the byte, stale or not
				if len(handles) == 0 {
					continue
				}
				id := int(op/4) % len(handles)
				if e.Live(handles[id]) {
					cancelled[id] = true
				}
				e.Cancel(handles[id])
			case 3: // cancel a forged handle: wrong generation on a valid slot
				if len(handles) == 0 {
					continue
				}
				h := handles[int(op/4)%len(handles)]
				h.gen += 1 + uint32(op/4)
				// A no-op unless the forged generation happens to be
				// that of the slot's current occupant, which is then a
				// genuine cancel of that handle.
				for id, real := range handles {
					if real == h && e.Live(real) {
						cancelled[id] = true
					}
				}
				e.Cancel(h)
			}
			live := 0
			for id, h := range handles {
				if e.Live(h) {
					if cancelled[id] || *firedBy[id] {
						t.Fatalf("event %d live after being cancelled or fired", id)
					}
					live++
				}
			}
			if live > e.Pending() {
				t.Fatalf("%d live handles > Pending %d", live, e.Pending())
			}
		}
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("Pending=%d after full drain", e.Pending())
		}
		for id, fl := range firedBy {
			if cancelled[id] == *fl {
				t.Fatalf("event %d: cancelled=%v fired=%v, want exactly one", id, cancelled[id], *fl)
			}
		}
	})
}
