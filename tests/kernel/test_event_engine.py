"""The event engine's dispatch order: exact ``(time_ns, seq)``.

One-shot events live on a heap of ``(time_ns, seq, ev)`` tuples, timers
on the wheel; both draw from one sequence counter.  Whatever mix of
schedule, cancel and requeue calls built the queue, ``pop_due`` must
hand events out in ``(time_ns, seq)`` order, skipping cancelled ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import make_kernel
from repro.kernel.events import FAR_NS


def _drain(events):
    out = []
    while True:
        ev = events.pop_due(FAR_NS)
        if ev is None:
            return out
        out.append(ev)


def test_equal_time_ties_run_in_seq_order_across_stores(kernel):
    events = kernel.events
    made = []
    for i in range(6):
        if i % 3 == 1:
            made.append(events.schedule_timer_at(700, lambda: None))
        else:
            made.append(events.schedule_at(700, lambda: None))
    seqs = [ev.seq for ev in made]
    assert seqs == sorted(seqs)
    assert _drain(events) == made


def test_requeue_keeps_the_original_seq(kernel):
    events = kernel.events
    first = events.schedule_at(10, lambda: None)
    later = [events.schedule_at(100, lambda: None) for _ in range(2)]
    popped = events.pop_due(FAR_NS)
    assert popped is first
    seq = first.seq
    events.requeue(first, 100)
    assert first.seq == seq
    # Same time as the others, earliest seq: it runs first.
    assert _drain(events) == [first] + later


def test_requeue_lands_after_earlier_times(kernel):
    events = kernel.events
    a = events.schedule_at(10, lambda: None)
    b = events.schedule_at(20, lambda: None)
    assert events.pop_due(FAR_NS) is a
    events.requeue(a, 30)
    assert _drain(events) == [b, a]


def test_cancelled_heap_heads_are_skipped(kernel):
    events = kernel.events
    dead = [events.schedule_at(t, lambda: None) for t in (5, 6, 7)]
    live = events.schedule_at(9, lambda: None)
    timer = events.schedule_timer_at(8, lambda: None)
    for ev in dead:
        ev.cancel()
    assert events.peek_time() == 8
    assert events.pop_due(7) is None
    assert events.pop_due(8) is timer
    assert events.peek_time() == 9
    assert events.pop_due(FAR_NS) is live
    assert events.peek_time() is None
    assert events.pop_due(FAR_NS) is None


def test_len_counts_live_events_in_both_stores(kernel):
    events = kernel.events
    assert len(events) == 0
    heap = [events.schedule_at(t, lambda: None) for t in (1, 2, 3)]
    wheel = [events.schedule_timer_at(t, lambda: None) for t in (4, 5)]
    assert len(events) == 5
    heap[1].cancel()
    wheel[0].cancel()
    assert len(events) == 3
    events.pop_due(FAR_NS)
    assert len(events) == 2


ops = st.lists(st.one_of(
    st.tuples(st.just("heap"), st.integers(0, 50)),
    st.tuples(st.just("wheel"), st.integers(0, 50)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("requeue"), st.integers(0, 50)),
    st.tuples(st.just("pop"), st.integers(0, 50)),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(script=ops)
def test_dispatch_order_matches_a_sorted_reference(script):
    events = make_kernel().events
    made = []
    live = {}          # seq -> (time_ns, ev): the reference model

    def reference_pop(target_ns):
        if not live:
            return None
        key = min((t, seq) for seq, (t, _ev) in live.items())
        if key[0] > target_ns:
            return None
        return live.pop(key[1])[1]

    for op, arg in script:
        if op == "heap":
            ev = events.schedule_at(arg, lambda: None)
        elif op == "wheel":
            ev = events.schedule_timer_at(arg, lambda: None)
        elif op == "cancel":
            if made:
                victim = made[arg % len(made)]
                victim.cancel()
                live.pop(victim.seq, None)
            continue
        elif op == "requeue":
            ev = events.pop_due(FAR_NS)
            assert ev is reference_pop(FAR_NS)
            if ev is not None:
                events.requeue(ev, arg)
                live[ev.seq] = (arg, ev)
            continue
        else:
            assert events.pop_due(arg) is reference_pop(arg)
            continue
        made.append(ev)
        live[ev.seq] = (ev.time_ns, ev)
        assert len(events) == len(live)

    rest = _drain(events)
    assert rest == [ev for _key, ev in sorted(
        ((t, seq), ev) for seq, (t, ev) in live.items())]
