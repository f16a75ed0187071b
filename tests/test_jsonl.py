"""The shared JSONL primitive (:mod:`repro.jsonl`) and the crash
property of every durable log built on it: truncated at any byte, a
log reads back as its longest record prefix."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.layout import Layout
from repro.core.migration import plan_migration
from repro.errors import ReproError
from repro.faults.journal import MigrationJournal
from repro.jsonl import (Appender, read_jsonl, read_records, write_atomic,
                         write_jsonl)
from repro.online.events import EventLog
from repro.serve.durability import (TenantWAL, load_tenant_state, read_wal,
                                    write_snapshot)

#: Logs written by an earlier release of the writers; the current
#: writers must reproduce them byte for byte and load them identically.
FORMAT_DIR = os.path.join(os.path.dirname(__file__), "data", "jsonl-format")


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------

def test_read_jsonl_tells_a_torn_tail_from_bad_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n[1, 2]\n{not json\n{"b": 2}\n{"c": ')
    assert read_jsonl(str(path)) == ([{"a": 1}, {"b": 2}], [3, 4], 6)


def test_read_jsonl_bad_line_before_blank_lines_is_not_torn(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\nnope\n\n')
    assert read_jsonl(str(path)) == ([{"a": 1}], [2], None)


def test_read_jsonl_torn_multibyte_character_is_a_torn_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": "\xe4\xb8')
    assert read_jsonl(str(path)) == ([{"a": 1}], [], 2)


def test_read_records_names_the_first_bad_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"a": 1}\n"str"\n{"b": 2}\n{"c"')
    with pytest.raises(ReproError, match=r"t\.jsonl:2: not a thing"):
        read_records(str(path), "a thing")
    path.write_text('{"a": 1}\n{"c"')
    with pytest.raises(ReproError, match=r"t\.jsonl:2: not a thing"):
        read_records(str(path), "a thing")


def test_appender_creates_its_directory_and_reopens_after_close(tmp_path):
    path = tmp_path / "sub" / "log.jsonl"
    for fsync in (False, True):
        log = Appender(path, fsync=fsync)
        log.append({"n": 1})
        log.close()
        log.append({"n": 2})
        log.close()
    assert path.read_text() == '{"n": 1}\n{"n": 2}\n' * 2


def test_write_atomic_takes_text_or_records_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "doc")
    write_atomic(path, json.dumps({"v": 1}))
    with open(path) as handle:
        assert json.load(handle) == {"v": 1}
    write_atomic(path, [{"a": 1}, {"b": 2}])
    assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], [], None)
    assert os.listdir(str(tmp_path)) == ["doc"]


def test_write_jsonl_applies_the_default_hook(tmp_path):
    path = str(tmp_path / "x.jsonl")
    write_jsonl(path, [{"n": np.int64(3)}], default=lambda v: v.item())
    with open(path) as handle:
        assert handle.read() == '{"n": 3}\n'


# ----------------------------------------------------------------------
# The three durable producers
# ----------------------------------------------------------------------

def _plan():
    current = Layout(np.array([[1.0, 0.0]]), ["a"], ["t0", "t1"])
    target = Layout(np.array([[0.0, 1.0]]), ["a"], ["t0", "t1"])
    return plan_migration(current, target, {"a": units.mib(8)})


def _build_journal(directory, steps):
    """Steps 0-7 record that chunk, 8 commits, 9 cancels."""
    path = os.path.join(directory, "migration-000001.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1),
                                      meta={"predicted_util": 0.5})
    for step in steps:
        if step < 8:
            journal.record_chunk(step)
        elif step == 8:
            journal.record_commit()
        else:
            journal.record_cancel()
    journal.close()
    return path


def _check_journal(path, records, torn):
    loaded = MigrationJournal.load(path)  # never raises
    kinds = [r["kind"] for r in records]
    assert loaded.done == {r["index"] for r in records
                           if r["kind"] == "chunk"}
    assert loaded.committed == ("commit" in kinds)
    # A journal torn inside its begin record never moved data.
    assert loaded.cancelled == ("cancel" in kinds or not records)
    assert loaded.malformed == (torn is not None)


def _build_wal(directory, steps):
    """A snapshot, then a WAL tail: even steps feed, odd steps swap."""
    wal = TenantWAL(directory)
    wal.append("create", tenant_id="t1", problem={"objects": []},
               controller={}, weight=1.0, slo=None, layout={"a": [1.0]},
               journal_seq=0)
    wal.append("feed", clock_s=1.0, records_fed=10, chunks_fed=1,
               resolves=0)
    write_snapshot(directory, {
        "tenant_id": "t1", "problem": {"objects": []},
        "layout": {"a": [1.0]}, "clock_s": 1.0, "records_fed": 10,
        "chunks_fed": 1, "resolves": 0, "journal_seq": 0,
        "swapped_journals": [], "wal_seq": wal.seq,
    })
    wal.compact(wal.seq)
    feeds, swaps = 1, 0
    for step in steps:
        if step % 2 == 0:
            feeds += 1
            wal.append("feed", clock_s=float(feeds),
                       records_fed=10 * feeds, chunks_fed=feeds,
                       resolves=swaps)
        else:
            swaps += 1
            wal.append("swap", journal="migration-%06d.jsonl" % swaps,
                       journal_seq=swaps, resolves=swaps,
                       layout={"a": [float(swaps)]})
    wal.close()
    return wal.path


def _check_wal(path, records, torn):
    """No duplicate placement swaps, no regression below the snapshot."""
    assert read_wal(path) == (records, 0)
    state = load_tenant_state(os.path.dirname(path))
    assert state is not None, "the snapshot floor always recovers"
    assert state["tenant_id"] == "t1"
    swaps = [r for r in records if r["kind"] == "swap"]
    feeds = [r for r in records if r["kind"] == "feed"]
    assert state["swapped_journals"] == [r["journal"] for r in swaps]
    assert state["journal_seq"] == (swaps[-1]["journal_seq"]
                                    if swaps else 0)
    assert state["layout"] == (swaps[-1]["layout"] if swaps
                               else {"a": [1.0]})
    assert state["records_fed"] == (feeds[-1]["records_fed"]
                                    if feeds else 10)
    assert state["wal_seq"] == (records[-1]["seq"] if records
                                else 2), "seq floor is the snapshot"


_EVENT_KINDS = ("baseline", "check", "trigger", "accept", "reject",
                "migrated", "fault", "emergency", "evacuate", "recovered")


def _build_events(directory, steps):
    path = os.path.join(directory, "events.jsonl")
    log = EventLog()
    for index, step in enumerate(steps):
        log.emit(index * 0.5, _EVENT_KINDS[step], step=step)
    log.to_jsonl(path)
    return path


def _check_events(path, records, torn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loaded = EventLog.from_jsonl(path)
    assert loaded.events == records
    assert loaded.skipped == (torn is not None)


PRODUCERS = {
    "journal": (_build_journal, _check_journal),
    "wal": (_build_wal, _check_wal),
    "events": (_build_events, _check_events),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(0, 9), max_size=10),
       cut=st.floats(0.0, 1.0))
def test_log_truncated_at_any_byte_reads_as_its_longest_prefix(
        producer, steps, cut):
    """SIGKILL can cut a log at any byte.  Every surviving whole line
    reads back, only the cut line may be torn, nothing earlier is
    bad, and each producer's loader accepts the prefix."""
    build, check = PRODUCERS[producer]
    with tempfile.TemporaryDirectory() as directory:
        path = build(directory, steps)
        full = read_jsonl(path)[0]
        with open(path, "rb") as handle:
            data = handle.read()
        offset = int(cut * len(data))
        with open(path, "r+b") as handle:
            handle.truncate(offset)

        records, bad_lines, torn = read_jsonl(path)
        assert bad_lines == [], "a clean truncation only tears the tail"
        assert records == full[:len(records)]
        whole = data[:offset].count(b"\n")
        assert whole <= len(records) <= whole + 1
        check(path, records, torn)


# ----------------------------------------------------------------------
# On-disk format compatibility
# ----------------------------------------------------------------------

def _write_format_samples(directory):
    """Write a journal, a WAL, a snapshot and an event log from fixed
    inputs; ``tests/data/jsonl-format`` holds this function's output
    from the earlier writers."""
    journal = _build_journal(directory, [0, 3, 1, 8])
    wal = TenantWAL(directory)
    wal.append("create", tenant_id="t1", problem={"objects": []},
               controller={}, weight=1.0, slo=None, layout={"a": [1.0]},
               journal_seq=0)
    wal.append("idem", key="k1", route="create_tenant",
               response={"tenant": "t1"})
    wal.append("feed", clock_s=2.5, next_check=4.0, records_fed=7,
               chunks_fed=1, resolves=0)
    wal.append("swap", journal=os.path.basename(journal), journal_seq=1,
               resolves=1, layout={"a": [0.25]})
    wal.close()
    write_snapshot(directory, {"tenant_id": "t1", "wal_seq": 2,
                               "problem": {"objects": []},
                               "layout": {"a": [1.0]}})
    _build_events(directory, [0, 1, 2, 3, 5])


def test_writers_reproduce_the_earlier_on_disk_bytes(tmp_path):
    _write_format_samples(str(tmp_path))
    names = sorted(os.listdir(FORMAT_DIR))
    assert sorted(os.listdir(str(tmp_path))) == names
    for name in names:
        with open(os.path.join(FORMAT_DIR, name), "rb") as expected, \
                open(os.path.join(str(tmp_path), name), "rb") as written:
            assert written.read() == expected.read(), name


def test_earlier_logs_load_identically():
    journal = MigrationJournal.load(
        os.path.join(FORMAT_DIR, "migration-000001.jsonl"))
    assert (journal.done, journal.committed, journal.cancelled) \
        == ({0, 1, 3}, True, False)
    state = load_tenant_state(FORMAT_DIR)
    assert state["wal_seq"] == 4 and state["wal_skipped"] == 0
    assert state["records_fed"] == 7 and state["next_check"] == 4.0
    assert state["layout"] == {"a": [0.25]}
    assert state["swapped_journals"] == ["migration-000001.jsonl"]
    assert state["idempotency"] == {}  # folded below the snapshot
    events = EventLog.from_jsonl(os.path.join(FORMAT_DIR, "events.jsonl"))
    assert [e["kind"] for e in events] == [
        "baseline", "check", "trigger", "accept", "migrated"]
    assert events.skipped == 0
