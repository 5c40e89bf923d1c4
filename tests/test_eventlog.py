"""Tests for repro.util.eventlog."""

from repro.util.eventlog import EventLog, LogEvent


class TestEventLog:
    def test_emit_and_len(self):
        log = EventLog()
        log.emit(0.1, "migrate", vcpu="vm1.v0")
        log.emit(0.2, "steal")
        assert len(log) == 2

    def test_disabled_log_is_noop(self):
        log = EventLog(enabled=False)
        log.emit(0.0, "migrate")
        assert len(log) == 0

    def test_of_kind_filters_and_preserves_order(self):
        log = EventLog()
        log.emit(0.1, "a", n=1)
        log.emit(0.2, "b")
        log.emit(0.3, "a", n=2)
        kinds = log.of_kind("a")
        assert [e.data["n"] for e in kinds] == [1, 2]

    def test_count(self):
        log = EventLog()
        for _ in range(3):
            log.emit(0.0, "x")
        assert log.count("x") == 3
        assert log.count("y") == 0

    def test_where_predicate(self):
        log = EventLog()
        log.emit(0.1, "m", cross=True)
        log.emit(0.2, "m", cross=False)
        crossing = log.where(lambda e: e.data.get("cross"))
        assert len(crossing) == 1 and crossing[0].time == 0.1

    def test_clear_resets_everything(self):
        log = EventLog()
        log.emit(0.0, "x")
        log.emit(0.0, "x")
        log.clear()
        assert len(log) == 0 and log.count("x") == 0

    def test_events_are_frozen(self):
        event = LogEvent(time=1.0, kind="x")
        try:
            event.time = 2.0  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_iteration_yields_events(self):
        log = EventLog()
        log.emit(0.5, "k", a=1)
        (event,) = list(log)
        assert event.kind == "k" and event.data == {"a": 1}
