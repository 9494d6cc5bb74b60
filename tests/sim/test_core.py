"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_run_until_time():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=35.0)
    assert env.now == 35.0


def test_run_until_past_raises():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        v = yield ev
        got.append((env.now, v))

    def trigger():
        yield env.timeout(7.0)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(7.0, "hello")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("oops")

    env.process(bad())
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_undefused_event_failure_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody handles me"))
    with pytest.raises(RuntimeError, match="nobody handles me"):
        env.run()


def test_yield_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the event with no listeners
    got = []

    def late_waiter():
        v = yield ev
        got.append(v)

    env.process(late_waiter())
    env.run()
    assert got == ["early"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=p)


def test_process_waits_on_subprocess():
    env = Environment()

    def child():
        yield env.timeout(4.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    assert env.run(until=p) == (4.0, "child-result")


def test_any_of():
    env = Environment()

    def proc():
        t_fast = env.timeout(1.0, value="fast")
        t_slow = env.timeout(5.0, value="slow")
        result = yield AnyOf(env, [t_fast, t_slow])
        return (env.now, list(result.values()))

    p = env.process(proc())
    now, values = env.run(until=p)
    assert now == 1.0
    assert values == ["fast"]


def test_all_of():
    env = Environment()

    def proc():
        events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        result = yield AllOf(env, events)
        return (env.now, sorted(result.values()))

    p = env.process(proc())
    now, values = env.run(until=p)
    assert now == 3.0
    assert values == [1.0, 2.0, 3.0]


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        yield AllOf(env, [])
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 0.0


def test_interrupt_wakes_blocked_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        p.interrupt(cause="wake up")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 2.0, "wake up")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_untriggered_event_deadlock_detected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_nested_processes_three_deep():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)
        return 1

    def mid():
        v = yield env.process(leaf())
        yield env.timeout(1.0)
        return v + 1

    def root():
        v = yield env.process(mid())
        return v + 1

    p = env.process(root())
    assert env.run(until=p) == 3
    assert env.now == 2.0


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(9.0)
    assert env.peek() == 9.0


def test_call_at_and_auto_timeout_at_fire_at_the_exact_instant():
    # 0.4 + (1.41 - 0.4) == 1.4099999999999997: an instant computed
    # ahead and scheduled by its delay would be missed by one ulp
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(0.4)
        env.call_at(1.41, lambda ev: fired.append((env.now, ev.value)), "x")
        yield env.auto_timeout_at(1.41)
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [(1.41, "x"), 1.41]


def test_call_at_now_queues_behind_events_already_due():
    env = Environment()
    order = []
    env.call_later(0.0, lambda ev: order.append("first"))
    env.call_at(0.0, lambda ev: order.append("second"))
    env.run()
    assert order == ["first", "second"]
    with pytest.raises(ValueError):
        env.call_at(-1.0, lambda ev: None)
    with pytest.raises(ValueError):
        env.auto_timeout_at(-1.0)


def test_schedule_triggers_a_waited_event_in_its_queue_slot():
    env = Environment()
    order = []
    ev = env.auto_event()
    ev.callbacks.append(lambda e: order.append(("scheduled", env.now, e.value)))
    env.call_later(2.0, lambda e: order.append(("before", env.now)))
    env.schedule(ev, 2.0, "v")
    env.call_later(2.0, lambda e: order.append(("after", env.now)))
    env.run()
    assert order == [("before", 2.0), ("scheduled", 2.0, "v"), ("after", 2.0)]
    with pytest.raises(ValueError):
        env.schedule(env.event(), -1.0)
    with pytest.raises(SimulationError):
        env.schedule(env.event().succeed(), 1.0)


def test_fire_runs_callbacks_in_the_current_slot_without_a_pop():
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    env = Environment(metrics=metrics)
    got = []
    waited = env.auto_event()

    def proc():
        got.append((yield waited))
        got.append(env.now)

    env.process(proc())
    env.call_later(1.0, lambda e: env.fire(waited, "x"))
    env.run()
    assert got == ["x", 1.0]
    # the process start, the call_later and the process exit; the fired
    # event itself is never queued, so never popped
    assert metrics.counter("sim.events_popped").value == 3
    # the pooled event went back to the free list, reset
    assert waited in env._free and not waited.triggered
    with pytest.raises(SimulationError):
        env.fire(env.event().succeed())
