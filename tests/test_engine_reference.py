"""The engine's event heap against a plain sorted-list reference model.

Hypothesis draws random programs — one-shot calls and handles
(``at``/``after``/``call_at``/``call_after``), periodic timers
(``every``), daemon and non-daemon forms, ``cancel`` and timer
``stop``, and events scheduled from inside callbacks, at times from
microseconds to seconds apart — and runs each one on :class:`Engine`
and on :class:`ModelEngine`.  The model keeps its entries in a list
sorted by ``(time, seq)`` and pops the front, so it shares no queue
code with the engine.  Both must fire the same callbacks in the same
order at the same clock, and agree on every ``run`` return value,
``live_events()`` and ``pending()``.
"""

import bisect

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine


class ModelHandle:
    def __init__(self, model, daemon):
        self.model = model
        self.daemon = daemon
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if not self.daemon:
                self.model.live -= 1

    def dead(self):
        return self.cancelled


class ModelTimer:
    def __init__(self, model, period, fn, args, daemon):
        self.model = model
        self.period = period
        self.fn = fn
        self.args = args
        self.daemon = daemon
        self.stopped = False
        self.scheduled = False

    def stop(self):
        if self.stopped:
            return
        self.stopped = True
        if self.scheduled:
            self.scheduled = False
            if not self.daemon:
                self.model.live -= 1

    def dead(self):
        return self.stopped


class ModelEngine:
    """Reference semantics: a list kept sorted by (time, seq)."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.live = 0
        #: (time, seq, daemon, owner, fn, args); owner is None for a
        #: plain call, else the ModelHandle or ModelTimer it belongs to.
        self.entries = []

    def _add(self, time, daemon, owner, fn, args):
        assert time >= self.now
        if not daemon:
            self.live += 1
        bisect.insort(self.entries, (time, self.seq, daemon, owner, fn, args))
        self.seq += 1

    def call_at(self, time, fn, *args, daemon=False):
        self._add(time, daemon, None, fn, args)

    def call_after(self, delay, fn, *args, daemon=False):
        self._add(self.now + delay, daemon, None, fn, args)

    def at(self, time, fn, *args, daemon=False):
        handle = ModelHandle(self, daemon)
        self._add(time, daemon, handle, fn, args)
        return handle

    def after(self, delay, fn, *args, daemon=False):
        return self.at(self.now + delay, fn, *args, daemon=daemon)

    def every(self, period, fn, *args, start=None, daemon=True):
        timer = ModelTimer(self, period, fn, args, daemon)
        self._add(self.now + period if start is None else start,
                  daemon, timer, None, None)
        timer.scheduled = True
        return timer

    def _alive(self):
        return [e for e in self.entries if e[3] is None or not e[3].dead()]

    def pending(self):
        return len(self._alive())

    def live_events(self):
        return self.live

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            if until is None and self.live == 0:
                break
            alive = self._alive()
            if not alive:
                break
            entry = alive[0]
            if until is not None and entry[0] > until:
                break
            self.entries.remove(entry)
            self.now = entry[0]
            self._fire(entry)
            executed += 1
        if until is not None and until > self.now:
            self.now = until
        return executed

    def _fire(self, entry):
        time, _seq, daemon, owner, fn, args = entry
        if not daemon:
            self.live -= 1
        if isinstance(owner, ModelTimer):
            owner.scheduled = False
            owner.fn(*owner.args)
            if not owner.stopped:
                self._add(time + owner.period, owner.daemon, owner, None, None)
                owner.scheduled = True
            return
        if owner is not None:
            owner.fired = True
        fn(*args)


class ProgramRunner:
    """Interprets a program against one engine, recording what fires."""

    def __init__(self, eng):
        self.eng = eng
        self.trace = []
        self.handles = []
        self.timers = []
        self.fires = []

    def apply(self, op):
        eng = self.eng
        kind = op[0]
        if kind in ("call_at", "at", "call_after", "after"):
            _, when, daemon, label, children = op
            if kind in ("call_at", "at"):
                when = eng.now + when
            schedule = getattr(eng, kind)
            handle = schedule(when, self.fire, label, children, daemon=daemon)
            if kind in ("at", "after"):
                self.handles.append(handle)
        elif kind == "every":
            _, period, offset, daemon, label, children, limit = op
            index = len(self.timers)
            self.fires.append(0)
            self.timers.append(eng.every(
                period, self.tick, label, children, index, limit,
                start=eng.now + offset, daemon=daemon,
            ))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "stop":
            if self.timers:
                self.timers[op[1] % len(self.timers)].stop()

    def fire(self, label, children):
        self.trace.append((label, self.eng.now))
        for child in children:
            self.apply(child)

    def tick(self, label, children, index, limit):
        self.fires[index] += 1
        self.fire(label, children)
        if self.fires[index] >= limit:
            self.timers[index].stop()


# --- program strategies -------------------------------------------------------

#: Offsets mix same-instant ties, near-term work and gaps of 65 ms to
#: 3 s.
times = st.one_of(
    st.integers(0, 3), st.integers(0, 2_000), st.integers(65_000, 3_000_000)
)
labels = st.integers(0, 99)


def one_shot(children):
    return st.tuples(
        st.sampled_from(["call_at", "at", "call_after", "after"]),
        times, st.booleans(), labels, children,
    )


controls = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("stop"), st.integers(0, 20)),
)

#: Ops run from inside a callback: no further nesting.
leaf_ops = st.one_of(one_shot(st.just(())), controls)
children = st.lists(leaf_ops, max_size=3).map(tuple)

timer_op = st.tuples(
    st.just("every"),
    st.one_of(st.integers(1, 50), st.integers(10_000, 200_000)),
    times, st.booleans(), labels, children,
    st.integers(1, 4),  # the timer stops itself after this many fires
)
ops = st.one_of(one_shot(children), timer_op, controls)

run_calls = st.one_of(
    st.tuples(st.just("until"), times),
    st.tuples(st.just("max_events"), st.integers(0, 6)),
    st.tuples(st.just("drain")),
)
programs = st.lists(
    st.tuples(st.lists(ops, max_size=6), run_calls), min_size=1, max_size=5
)


def _run(runner, call):
    eng = runner.eng
    if call[0] == "until":
        return eng.run(until=eng.now + call[1])
    if call[0] == "max_events":
        return eng.run(max_events=call[1])
    return eng.run()


@settings(max_examples=300, deadline=None)
@given(programs)
def test_engine_matches_sorted_list_model(program):
    real = ProgramRunner(Engine(seed=0))
    model = ProgramRunner(ModelEngine())
    for phase, (phase_ops, call) in enumerate(program):
        for op in phase_ops:
            real.apply(op)
            model.apply(op)
        got = _run(real, call)
        want = _run(model, call)
        where = f"phase {phase} ({call})"
        assert real.trace == model.trace, where
        assert got == want, where
        assert real.eng.now == model.eng.now, where
        assert real.eng.live_events() == model.eng.live_events(), where
        assert real.eng.pending() == model.eng.pending(), where
    # Drain to the end: every remaining non-daemon event fires in
    # reference order too.
    assert real.eng.run() == model.eng.run()
    assert real.trace == model.trace
    assert real.eng.now == model.eng.now
    assert real.eng.pending() == model.eng.pending()
