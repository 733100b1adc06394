"""Tests for the columnar RecordLog (struct-of-arrays request storage)."""

import pytest

from repro.gateway.records import RecordLog


class TestInterning:
    def test_roundtrip(self):
        log = RecordLog()
        rid = log.intern_route("shap")
        pid = log.intern_payload("tabular")
        assert log.route_name(rid) == "shap"
        assert log.payload_name(pid) == "tabular"

    def test_interning_is_idempotent(self):
        log = RecordLog()
        assert log.intern_route("shap") == log.intern_route("shap")
        assert log.intern_route("lime") != log.intern_route("shap")

    def test_error_code_zero_is_no_error(self):
        log = RecordLog()
        assert log.intern_error("") == 0
        assert log.error_message(0) == ""
        assert log.intern_error("queue full (503)") == 1

    def test_route_names_vocabulary(self):
        log = RecordLog()
        log.intern_route("a")
        log.intern_route("b")
        assert log.route_names == ["a", "b"]


class TestRowLifecycle:
    def test_append_stamps_identity_columns(self):
        log = RecordLog()
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        row = log.append(rid, pid, 1.5)
        assert log.arrival[row] == 1.5
        assert log.route_ids[row] == rid
        assert log.payload_ids[row] == pid
        assert bool(log.ok[row])
        assert len(log) == 1
        assert log.appended == 1

    def test_geometric_growth_preserves_rows(self):
        log = RecordLog(initial_capacity=2)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        rows = [log.append(rid, pid, float(i)) for i in range(10)]
        assert log.capacity >= 10
        for i, row in enumerate(rows):
            assert log.arrival[row] == float(i)

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            RecordLog(initial_capacity=0)

    def test_fail_marks_row(self):
        log = RecordLog()
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        code = log.intern_error("queue full (503)")
        row = log.append(rid, pid, 1.0)
        log.fail(row, code, 2.0)
        assert not log.ok[row]
        assert log.start[row] == log.end[row] == 2.0
        assert log.error_codes[row] == code


class TestRetainMode:
    def test_release_is_noop_and_records_materialise(self):
        log = RecordLog(retain=True)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        row = log.append(rid, pid, 0.5)
        log.start[row] = 0.6
        log.end[row] = 0.9
        log.release(row)
        assert len(log) == 1  # nothing recycled
        [record] = log.records()
        assert record.request.route == "svc"
        assert record.arrival == 0.5
        assert record.response_time == pytest.approx(0.4)
        assert record.success
        assert record.error == ""

    def test_failed_row_view_carries_error(self):
        log = RecordLog(retain=True)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        code = log.intern_error("boom")
        row = log.append(rid, pid, 0.0)
        log.fail(row, code, 1.0)
        record = log.record(row)
        assert not record.success
        assert record.error == "boom"


class TestRingMode:
    def test_released_rows_are_recycled(self):
        log = RecordLog(initial_capacity=4, retain=False)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        first = log.append(rid, pid, 0.0)
        log.release(first)
        second = log.append(rid, pid, 1.0)
        assert second == first
        assert log.recycled == 1
        assert log.appended == 2
        assert len(log) == 1  # high-water mark never moved

    def test_memory_bounded_by_in_flight_not_total(self):
        log = RecordLog(initial_capacity=4, retain=False)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        for i in range(10_000):
            row = log.append(rid, pid, float(i))
            log.release(row)
        assert log.capacity == 4
        assert log.appended == 10_000

    def test_recycled_row_resets_ok_flag(self):
        log = RecordLog(retain=False)
        rid = log.intern_route("svc")
        pid = log.intern_payload("tabular")
        code = log.intern_error("boom")
        row = log.append(rid, pid, 0.0)
        log.fail(row, code, 1.0)
        log.release(row)
        again = log.append(rid, pid, 2.0)
        assert again == row
        assert bool(log.ok[again])  # previous failure must not leak
        assert log.record(again).error == ""

    def test_records_refused(self):
        log = RecordLog(retain=False)
        with pytest.raises(ValueError):
            log.records()
