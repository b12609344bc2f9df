package sim

import (
	"testing"

	"repro/internal/units"
)

// fixedDelayRig drives two engines through the same operations: fx
// queues the constant-delay events on fixed-delay FIFOs, ref keeps
// every event in the heap. Each engine logs the ids of the events it
// fires.
type fixedDelayRig struct {
	fx, ref       *Engine
	qa, qb        *FixedDelay
	fxLog, refLog []int
	fxEv, refEv   []Event
}

const (
	rigDelayA = 7 * units.Nanosecond
	rigDelayB = 3 * units.Nanosecond
)

func newFixedDelayRig() *fixedDelayRig {
	r := &fixedDelayRig{fx: NewEngine(), ref: NewEngine()}
	r.qa = r.fx.FixedDelay(rigDelayA)
	r.qb = r.fx.FixedDelay(rigDelayB)
	return r
}

func (r *fixedDelayRig) logger(log *[]int, id int) func() {
	return func() { *log = append(*log, id) }
}

// heap schedules one event with an arbitrary delay on both engines.
func (r *fixedDelayRig) heap(delay units.Time) {
	id := len(r.fxEv)
	r.fxEv = append(r.fxEv, r.fx.Schedule(delay, r.logger(&r.fxLog, id)))
	r.refEv = append(r.refEv, r.ref.Schedule(delay, r.logger(&r.refLog, id)))
}

// fifo schedules one constant-delay event: through q on fx, through
// the heap on ref.
func (r *fixedDelayRig) fifo(q *FixedDelay, delay units.Time) {
	id := len(r.fxEv)
	r.fxEv = append(r.fxEv, q.Schedule(r.logger(&r.fxLog, id)))
	r.refEv = append(r.refEv, r.ref.Schedule(delay, r.logger(&r.refLog, id)))
}

// chained schedules a heap event that, when it fires, schedules a
// constant-delay event: FIFO entries made at a later clock.
func (r *fixedDelayRig) chained(delay units.Time) {
	id := len(r.fxEv)
	r.fxEv = append(r.fxEv, r.fx.Schedule(delay, func() {
		r.fxLog = append(r.fxLog, id)
		r.qa.Schedule(r.logger(&r.fxLog, -id-1))
	}))
	r.refEv = append(r.refEv, r.ref.Schedule(delay, func() {
		r.refLog = append(r.refLog, id)
		r.ref.Schedule(rigDelayA, r.logger(&r.refLog, -id-1))
	}))
}

func (r *fixedDelayRig) check(t *testing.T, step int) {
	t.Helper()
	if r.fx.Now() != r.ref.Now() || r.fx.Fired() != r.ref.Fired() || r.fx.Pending() != r.ref.Pending() {
		t.Fatalf("step %d: fx now=%v fired=%d pending=%d, ref now=%v fired=%d pending=%d", step,
			r.fx.Now(), r.fx.Fired(), r.fx.Pending(), r.ref.Now(), r.ref.Fired(), r.ref.Pending())
	}
	if len(r.fxLog) != len(r.refLog) {
		t.Fatalf("step %d: fx fired %v, ref fired %v", step, r.fxLog, r.refLog)
	}
	for i := range r.fxLog {
		if r.fxLog[i] != r.refLog[i] {
			t.Fatalf("step %d: firing order diverges at %d: fx %v, ref %v", step, i, r.fxLog, r.refLog)
		}
	}
}

// FuzzFixedDelayOrder runs random sequences of heap schedules,
// fixed-delay schedules, cancels, steps and bounded runs on an engine
// with two fixed-delay FIFOs and on one that keeps every event in the
// heap, and checks that both fire the same events in the same order at
// the same instants, with the same Pending count throughout.
func FuzzFixedDelayOrder(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 6, 6, 6})
	f.Add([]byte{0x08, 1, 2, 3, 6, 1, 6, 6, 6})
	f.Add([]byte{1, 2, 1, 2, 3, 0x0b, 6, 4, 0x2c, 6, 6, 5})
	f.Add([]byte{0x38, 4, 1, 0x10, 5, 6, 1, 7, 6, 6})
	f.Fuzz(func(t *testing.T, tape []byte) {
		r := newFixedDelayRig()
		for i, op := range tape {
			if i > 4096 {
				break
			}
			arg := int(op / 8)
			switch op % 8 {
			case 0: // heap event, delay 0..31 ns
				r.heap(units.Time(arg) * units.Nanosecond)
			case 1:
				r.fifo(r.qa, rigDelayA)
			case 2:
				r.fifo(r.qb, rigDelayB)
			case 3: // cancel a handle picked by the byte, live or not
				if len(r.fxEv) > 0 {
					id := arg % len(r.fxEv)
					r.fx.Cancel(r.fxEv[id])
					r.ref.Cancel(r.refEv[id])
				}
			case 4:
				r.chained(units.Time(arg) * units.Nanosecond)
			case 5: // peek: drains cancelled heads on both engines
				at1, ok1 := r.fx.NextEventAt()
				at2, ok2 := r.ref.NextEventAt()
				if at1 != at2 || ok1 != ok2 {
					t.Fatalf("op %d: NextEventAt fx (%v,%v), ref (%v,%v)", i, at1, ok1, at2, ok2)
				}
			case 6:
				if a, b := r.fx.Step(), r.ref.Step(); a != b {
					t.Fatalf("op %d: Step fx %v, ref %v", i, a, b)
				}
			case 7:
				d := units.Time(arg) * units.Nanosecond
				r.fx.RunFor(d)
				r.ref.RunFor(d)
			}
			r.check(t, i)
		}
		r.fx.Run()
		r.ref.Run()
		r.check(t, len(tape))
		if r.fx.Pending() != 0 {
			t.Fatalf("%d entries left queued after Run", r.fx.Pending())
		}
	})
}

// A FIFO holds one delay: asking twice for the same delay returns the
// same queue, and a new delay makes a new one.
func TestFixedDelayOnePerDelay(t *testing.T) {
	e := NewEngine()
	a := e.FixedDelay(units.Microsecond)
	if e.FixedDelay(units.Microsecond) != a {
		t.Fatal("second FixedDelay(1us) made a new queue")
	}
	if e.FixedDelay(2*units.Microsecond) == a {
		t.Fatal("FixedDelay(2us) reused the 1us queue")
	}
}

// Equal-time events fire in scheduling order across the heap and a
// FIFO, as they would with the heap alone.
func TestFixedDelayTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	q := e.FixedDelay(5 * units.Nanosecond)
	var got []string
	e.Schedule(5*units.Nanosecond, func() { got = append(got, "heap1") })
	q.Schedule(func() { got = append(got, "fifo1") })
	e.Schedule(5*units.Nanosecond, func() { got = append(got, "heap2") })
	q.Schedule(func() { got = append(got, "fifo2") })
	e.Run()
	want := []string{"heap1", "fifo1", "heap2", "fifo2"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 5*units.Nanosecond {
		t.Fatalf("now = %v, want 5ns", e.Now())
	}
}

// A cancelled FIFO entry stays queued (Pending counts it) until it
// reaches the head, and never fires.
func TestFixedDelayCancelIsLazy(t *testing.T) {
	e := NewEngine()
	q := e.FixedDelay(units.Microsecond)
	fired := false
	ev := q.Schedule(func() { fired = true })
	e.Cancel(ev)
	if e.Live(ev) {
		t.Fatal("cancelled FIFO event still live")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (lazy cancel)", e.Pending())
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt found a live event")
	}
	if e.Pending() != 0 || e.Step() || fired {
		t.Fatalf("cancelled entry not drained: pending=%d fired=%v", e.Pending(), fired)
	}
}

// Scheduling on a FIFO, cancelling and draining must not allocate
// once the ring and the slot slab are warm: GM re-arms a retransmit
// timer on every transmission.
func TestFixedDelaySteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	q := e.FixedDelay(units.Microsecond)
	fn := func() {}
	for i := 0; i < 16; i++ {
		e.Cancel(q.Schedule(fn))
		e.Schedule(units.Nanosecond, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.Cancel(q.Schedule(fn))
		q.Schedule(fn)
		e.Schedule(units.Nanosecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("FixedDelay schedule/cancel/step allocates %.1f/op in steady state, want 0", allocs)
	}
}
