import csv
import enum
import errno
import io
import itertools
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import PurePosixPath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import decode_ids, texts_at
from fedspeech.arch import WorkloadSpec, arch_to_mapping, base_preset
from fedspeech.costs import forward_flops, module_rollup
from fedspeech.errors import ConfigError
from fedspeech import report
from fedspeech.aggregation import Trajectory
from fedspeech.federation import (Partition, WallClockEstimate, encode_ids,
                                  partition_by_speaker, schedule_rounds, synthetic_manifest)
from fedspeech.report import (PLAN_CSV_HEADER, TRAJECTORY_CSV_HEADER, Rows, StreamedList,
                              cost_report_payload, partition_payload, plan_rows,
                              schedule_payload, trajectory_rows, wall_clock_payload,
                              write_csv, write_json)


def _runs(items, picked, depth=3):
    """The (start, end) offsets in ``texts_at(items, depth)`` of the texts of
    the items at ``picked``."""
    offsets = np.cumsum([0] + [len(texts_at([i], depth)) for i in items])
    picked = np.array(picked, dtype=np.int64)
    return offsets[picked], offsets[picked + 1]


# Streamed lists as a report holds them, each made for the nesting depth it
# is written at. Strings as a manifest holds utterance ids: their JSON
# texts, each followed by the separator of that depth, in one bytes object
# (``ids``), or picked one run per text from a bytearray (``texts``). Rows
# filled into a %-template: ints (``ints``), (int, float) pairs whose JSON
# texts span lines, as a schedule's rounds do (``rows``), and floats as an
# object's members, as fl_plan.json's epoch times (``members``).
STREAMED = {
    "ids": lambda items, depth: StreamedList(texts_at(items, depth)),
    "texts": lambda items, depth: StreamedList(bytearray(texts_at(items, depth)),
                                               runs=_runs(items, range(len(items)), depth)),
    "ints": lambda items, depth: StreamedList(Rows("%d", len(items), 1,
                                                   lambda lo, hi: items[lo:hi])),
    "rows": lambda items, depth: StreamedList(Rows(
        '{\n  "n": %d,\n  "x": [\n    %r,\n    %d\n  ]\n}', len(items), 3,
        lambda lo, hi: [v for n, x in items[lo:hi] for v in (n, x, n)])),
    "members": lambda items, depth: StreamedList(Rows(
        '"k%d": %r', len(items), 2,
        lambda lo, hi: [v for i, x in enumerate(items[lo:hi], lo) for v in (i, x)]),
        brackets="{}"),
}
# The JSON value each kind stands for, from the same items
PLAIN = {"ids": list, "texts": list, "ints": list,
         "rows": lambda items: [{"n": n, "x": [x, n]} for n, x in items],
         "members": lambda items: {f"k{i}": x for i, x in enumerate(items)}}


def _unwrapped(items, depth):
    """A streamed list's items as the plain list it stands for, at any depth."""
    return items


def test_streamed_strings_written_as_json_dump_writes_lists(tmp_path):
    strings = {"z": ["b", 'a "quoted" \\ id', "n\u00e4me", "\x01", " "], "empty": [],
               "x": ["x"], "more": ["y", "z"], "deep": ["deep"]}

    def payload(wrap):
        return {
            "z": wrap(strings["z"], 1),
            "clients": [{"ids": wrap(strings["empty"], 3), "n": 1},
                        {"ids": wrap(strings["x"], 3), "more": wrap(strings["more"], 3)}],
            "meta": {"pair": (1, 2), "nested": [[wrap(strings["deep"], 4)]]},
            "f": 1.5,
        }

    expected = json.dumps(payload(_unwrapped), indent=2, sort_keys=True) + "\n"
    for kind in ("ids", "texts"):
        write_json(tmp_path / "p.json", payload(STREAMED[kind]))
        assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected


def test_a_string_equal_to_the_placeholder_is_written_as_itself(tmp_path):
    def payload(strings, ints):
        return {"name": "\x00streamed strings",
                "ids": strings(["a", "\x00streamed strings"], 1),
                "rounds": [{"selected": ints([3, 7], 3)}, {"\x00streamed strings": ints([], 3)}]}

    write_json(tmp_path / "p.json", payload(STREAMED["ids"], STREAMED["ints"]))
    expected = json.dumps(payload(_unwrapped, _unwrapped), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_raises_and_writes_nothing(tmp_path, value):
    with pytest.raises(ConfigError, match=r"^cannot write p\.json: "):
        write_json(tmp_path / "p.json", {"ok": 1.0, "nested": [{"x": value}]})
    assert not any(tmp_path.iterdir())


class _Streamed:
    """A streamed list in a drawn payload, before it is wrapped or unwrapped."""

    def __init__(self, kind, items):
        self.kind, self.items = kind, items


# Characters JSON escapes or ensure_ascii writes as \u escapes, JSON's own
# punctuation, then any other; or a separator a fix-up of encoded rows could
# mistake for one between rows or members
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\x80ä \U0001f600{}[],:'),
                          st.characters()), max_size=6) \
    | st.sampled_from(["}, {", "},\n    {", ", ", '", "', ": {"])
_KEYS = st.text("ab\"\x7fä", max_size=2)
_INTS = st.integers(-2**70, 2**70)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_STREAMED_LISTS = st.one_of(
    st.builds(_Streamed, st.sampled_from(["ids", "texts"]), st.lists(_TEXT, max_size=5)),
    st.builds(_Streamed, st.just("ints"), st.lists(_INTS, max_size=5)),
    st.builds(_Streamed, st.just("rows"), st.lists(st.tuples(_INTS, _FLOATS), max_size=4)),
    # at most 10 members, whose keys k0 to k9 sort in member order
    st.builds(_Streamed, st.just("members"), st.lists(_FLOATS | st.just(-0.0), max_size=10)))
class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Colour(str, enum.Enum):
    RED = "red"
    QUOTE = '"q\u00e4"'


# values json writes as numbers or strings without being one of their
# plain types: int and str subclasses, a float subclass, and objects that
# default=str writes
_LOOKALIKES = st.one_of(st.sampled_from(list(_Level) + list(_Colour)), _FLOATS.map(np.float64),
                        st.builds(PurePosixPath, st.text("ab/\u00e4", max_size=4)))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _TEXT, _FLOATS, _LOOKALIKES,
                     st.just(-0.0))
# keys json can sort: strings, numbers (bool and IntEnum among them), or a
# lone None; each non-str key is written as a string
_NUMBER_KEYS = st.one_of(st.booleans(), st.integers(-3, 3), _FLOATS, st.just(-0.0),
                         st.sampled_from(list(_Level)))


def _dicts(values, max_size, min_size=0):
    return (st.dictionaries(_KEYS, values, min_size=min_size, max_size=max_size)
            | st.dictionaries(_NUMBER_KEYS, values, min_size=min_size, max_size=max_size)
            | st.dictionaries(st.none(), values, min_size=min_size, max_size=1))


def _mixed(rows, odd, at, kind):
    """``rows`` with the ``odd`` items put in at ``at``, as a ``kind``."""
    at %= len(rows) + 1
    return kind(rows[:at] + odd + rows[at:])


# Rows as a report holds them: 2 or more non-empty dicts that hold no
# container, which write_json encodes in one call as a list or tuple; their
# values are strings more often than other scalars, so that separators turn
# up in them. Mixed in, an odd item sends them back to the walk: an empty
# dict, a dict that holds a container, or a scalar.
_FLAT_DICTS = st.lists(_dicts(_TEXT | _SCALARS, 4, min_size=1), min_size=2, max_size=4)
_ODD = [{}, {"a": [1]}, {"b": {"c": 0}}, "x"]
_ROWS = st.builds(_mixed, _FLAT_DICTS, st.lists(st.sampled_from(_ODD) | _SCALARS, max_size=1),
                  st.integers(0, 4), st.sampled_from([list, tuple]))
_LEAVES = st.one_of(_SCALARS, _STREAMED_LISTS, _ROWS, st.sampled_from([[], {}, ()]))


_PAYLOADS = _dicts(st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | _dicts(inner, 3), max_leaves=12), 4)


def _build(node, streamed, depth=0):
    """The payload ``node`` stands for at nesting ``depth``, with its
    streamed lists made for the depths they are written at, or unwrapped."""
    if isinstance(node, _Streamed):
        return STREAMED[node.kind](node.items, depth) if streamed \
            else PLAIN[node.kind](node.items)
    if isinstance(node, dict):
        return {k: _build(v, streamed, depth + 1) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(_build(v, streamed, depth + 1) for v in node)
    return node


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_streamed_lists_written_as_json_dumps_writes_them(tmp_path, payload):
    write_json(tmp_path / "p.json", _build(payload, streamed=True))
    expected = json.dumps(_build(payload, streamed=False), indent=2, sort_keys=True,
                          default=str)
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected + "\n"


@pytest.mark.parametrize("odd", [[]] + [[item] for item in _ODD],
                         ids=["rows", "empty-dict", "list-in-a-row", "dict-in-a-row", "scalar"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_FLAT_DICTS, at=st.integers(0, 4), kind=st.sampled_from([list, tuple]),
       depth=st.integers(0, 2))
def test_rows_written_as_json_dumps_writes_them(tmp_path, odd, rows, at, kind, depth):
    payload = {"rows": _mixed(rows, odd, at, kind)}
    for _ in range(depth):
        payload = {"a": payload, "b": 1}
    write_json(tmp_path / "p.json", payload)
    expected = json.dumps(payload, indent=2, sort_keys=True, default=str)
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["depth-2", "depth-3", "after-streamed", "key"])
def test_non_finite_in_a_flat_list_raises_and_leaves_no_file(tmp_path, value, where):
    # the ids sort first, so their chunks are in the temp file before the
    # non-finite number is met
    payload = {"depth-2": {"a": {"b": [1.0, value]}},
               "depth-3": {"a": [{"b": [2, value]}], "c": 1},
               "after-streamed": {"a-ids": StreamedList(texts_at(["x", "y"], 1)),
                                  "b": {"c": [value, 3.0]}},
               "key": {"a": [1], "b": {value: [1.0]}}}[where]
    with pytest.raises(ConfigError, match=r"^cannot write p\.json: Out of range float"):
        write_json(tmp_path / "p.json", payload)
    assert not any(tmp_path.iterdir())



@pytest.mark.parametrize("payload", [{"a": {(1, 2): 1}}, {"a": {(1, 2): [1]}}],
                         ids=["flat", "walked"])
def test_a_key_json_cannot_write_raises_as_json_dumps_does(tmp_path, payload):
    with pytest.raises(TypeError) as dumped:
        json.dumps(payload, indent=2, sort_keys=True, default=str)
    with pytest.raises(TypeError, match=f"^{re.escape(str(dumped.value))}$"):
        write_json(tmp_path / "p.json", payload)
    assert not any(tmp_path.iterdir())

def test_schedule_written_as_json_dumps_writes_its_rounds(tmp_path):
    schedule = schedule_rounds(30, 4, 25, seed=3)
    write_json(tmp_path / "s.json", schedule_payload(schedule, {"k": 1}))
    expected = {"meta": {"k": 1}, "total_clients": 30, "per_round": 4, "seed": 3,
                "rounds": [{"round_id": i, "selected": selected}
                           for i, selected in enumerate(schedule.selected.tolist())]}
    assert (tmp_path / "s.json").read_text() == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_rounds_are_encoded_a_chunk_at_a_time(tmp_path):
    schedule = schedule_rounds(30, 4, 5000, seed=3)
    payload = schedule_payload(schedule, {})
    pieces = [bytes(piece) for piece in payload["rounds"].pieces(1)]
    per = report._CHUNK_VALUES // 5  # rounds to a piece: a round is 5 values
    assert 5000 % per  # the last piece is a short one
    # the brackets, then the pieces of rounds
    assert [piece.count(b'"round_id"') for piece in pieces[1:-1]] == \
        [per] * (5000 // per) + [5000 % per]
    write_json(tmp_path / "s.json", payload)
    expected = {"meta": {}, "total_clients": 30, "per_round": 4, "seed": 3,
                "rounds": [{"round_id": i, "selected": selected}
                           for i, selected in enumerate(schedule.selected.tolist())]}
    assert (tmp_path / "s.json").read_text() == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_an_analyze_reports_rows_are_encoded_in_one_call_each(tmp_path, monkeypatch):
    arch = base_preset()
    costs = forward_flops(arch, WorkloadSpec(5.5, batch=4))
    payload = cost_report_payload(costs, module_rollup(costs), {"arch": arch_to_mapping(arch)})
    encoded = []  # each value given to one of json's C encoders
    made = report._encoder

    def counted(depth):
        encoder = made(depth)
        return lambda value, level: encoded.append(value) or encoder(value, level)

    monkeypatch.setattr(report, "_encoder", counted)
    write_json(tmp_path / "a.json", payload)
    tables = [payload["per_layer"], payload["rollup"], payload["meta"]["arch"]["conv_stack"]]
    assert [len(table) for table in tables] == [24, 5, 7]
    for table in tables:  # the whole table in one call, and never a row by itself
        assert sum(value is table for value in encoded) == 1
        assert not any(value is row for value in encoded for row in table)
    assert (tmp_path / "a.json").read_text() == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The dict-built sections, as the reports were built one client or one round
# at a time; the templated sections must write them byte for byte.
def _client_ids(n):
    return [f"client_{i:0{len(str(n - 1))}d}" for i in range(n)]


def _dict_partition(partition, ids=None):
    clients = [{"client_id": cid, "n_utterances": n, "total_duration_s": round(total, 6),
                "n_speakers": held}
               for cid, n, total, held in zip(_client_ids(partition.n_clients),
                                              partition.n_utterances.tolist(),
                                              partition.total_duration_s.tolist(),
                                              partition.n_speakers.tolist())]
    for client, held in zip(clients, ids or ()):
        client["utterance_ids"] = held
    return {"meta": {"k": 1}, "seed": partition.seed, "clients": clients}


def _dict_schedule(schedule):
    return {"meta": {"k": 1}, "total_clients": schedule.total_clients,
            "per_round": schedule.per_round, "seed": schedule.seed,
            "rounds": [{"round_id": i, "selected": selected}
                       for i, selected in enumerate(schedule.selected.tolist())]}


def _dict_wall_clock(estimate, comm):
    epochs = estimate.seconds_per_local_epoch.tolist()
    return {"meta": {"k": 1},
            "seconds_per_local_epoch": dict(zip(_client_ids(len(epochs)),
                                                (round(v, 6) for v in epochs))),
            "device_breakdown_s": {estimate.device: round(max(epochs), 6)},
            "n_rounds": len(estimate.seconds_per_round),
            "total_seconds": round(estimate.total_seconds, 6),
            "total_hours": round(estimate.total_hours, 6),
            "total_days": round(estimate.total_days, 6),
            "communication_bytes": comm}


def _csv_rows(partition, estimate, device):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(PLAN_CSV_HEADER)
    writer.writerows([cid, device, n, f"{epoch:.6g}"] for cid, n, epoch in zip(
        _client_ids(partition.n_clients), partition.n_utterances.tolist(),
        estimate.seconds_per_local_epoch.tolist()))
    return text.getvalue()


def _trajectory_csv(trajectory):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(TRAJECTORY_CSV_HEADER)
    losses = trajectory.client_losses
    columns = (losses.mean(axis=1), losses.min(axis=1), losses.max(axis=1),
               trajectory.population_loss, trajectory.distance_to_optimum)
    writer.writerows([round_id, *(f"{x:.10g}" for x in row)]
                     for round_id, row in enumerate(zip(*(c.tolist() for c in columns))))
    return text.getvalue()


def _assert_written_as(path, payload, dicts):
    write_json(path, payload)
    assert path.read_text() == json.dumps(dicts, indent=2, sort_keys=True) + "\n"


# Floats whose text or rounding is an edge: signed zero, below the rounding,
# on it, e-notation, the largest float; then drawn ones of many digits.
_EDGE_FLOATS = [0.0, -0.0, 4e-7, 5e-7, 2.5e-6, 123456.0000005, 1e16, 1.7976931348623157e308]


def _floats(rng, n):
    return np.concatenate([_EDGE_FLOATS, rng.uniform(0, 1e5, n)])[:n]


# Sizes on each side of a piece of rows; with 40 values to a piece, a piece
# holds 10 clients of the partition, 20 epoch times, 13 rows of fl_plan.csv,
# 6 of fl_sim.csv or 10 rounds of 3 clients.
SIZES = [1, 10, 11, 256, 257, 1001]
CHUNKS = pytest.mark.parametrize("chunk_values", [None, 40], ids=["pieces", "40-values"])


@CHUNKS
@pytest.mark.parametrize("n", SIZES)
def test_templated_sections_written_as_their_dicts(tmp_path, monkeypatch, n, chunk_values):
    if chunk_values:
        monkeypatch.setattr(report, "_CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(n)
    partition = Partition(n_utterances=rng.integers(1, 2**62, n),
                          total_duration_s=_floats(rng, n),
                          n_speakers=rng.integers(1, 1000, n), seed=n)
    _assert_written_as(tmp_path / "p.json", partition_payload(partition, {"k": 1}),
                       _dict_partition(partition))
    schedule = schedule_rounds(n + 3, 3, n, seed=n)  # a sampled schedule
    _assert_written_as(tmp_path / "s.json", schedule_payload(schedule, {"k": 1}),
                       _dict_schedule(schedule))
    estimate = WallClockEstimate(device="nx",
                                 seconds_per_local_epoch=_floats(rng, n)[::-1].copy(),
                                 seconds_per_round=np.full(3, 1.5), total_seconds=4.5e9 / 7)
    _assert_written_as(tmp_path / "w.json", wall_clock_payload(estimate, 1e12, {"k": 1}),
                       _dict_wall_clock(estimate, 1e12))
    for device in ('lab "5%", b', "%d\u00e4 %%\nx", "nx"):  # csv quotes all but the last
        write_csv(tmp_path / "p.csv", PLAN_CSV_HEADER,
                  plan_rows(partition, replace(estimate, device=device)))
        assert (tmp_path / "p.csv").read_text(encoding="utf-8") == \
            _csv_rows(partition, estimate, device)
    # every value of fl_sim.csv's columns an edge or a float of many digits;
    # the first row's mean and largest loss infinite, its population loss
    # NaN and its distance minus infinity
    losses = _floats(rng, 3 * n).reshape(n, 3)
    losses[0] = [math.inf, 1.0, 2.0]
    trajectory = Trajectory(selected=rng.integers(0, 3, (n, 3)), client_losses=losses,
                            population_loss=_floats(rng, n)[::-1].copy(),
                            distance_to_optimum=-_floats(rng, n), final_weights=np.zeros(1))
    trajectory.population_loss[0], trajectory.distance_to_optimum[0] = math.nan, -math.inf
    write_csv(tmp_path / "t.csv", TRAJECTORY_CSV_HEADER, trajectory_rows(trajectory))
    assert (tmp_path / "t.csv").read_text() == _trajectory_csv(trajectory)


def test_fl_sim_csv_of_100000_rounds_allocates_under_8_mb(tmp_path):
    # a list of rows, one Python list and six objects a round, took 67.7 MB
    rounds, rng = 100_000, np.random.default_rng(0)
    trajectory = Trajectory(selected=np.zeros((rounds, 20), np.int64),
                            client_losses=rng.uniform(size=(rounds, 20)),
                            population_loss=rng.uniform(size=rounds),
                            distance_to_optimum=rng.uniform(size=rounds),
                            final_weights=np.zeros(1))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "fl_sim.csv", TRAJECTORY_CSV_HEADER, trajectory_rows(trajectory))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6
    with open(tmp_path / "fl_sim.csv", "rb") as fh:
        lines = fh.readlines()
    assert len(lines) == rounds + 1 and lines[-1].startswith(b"99999,")


@pytest.fixture(scope="module")
def small_manifest():
    return synthetic_manifest(n_utterances=3300, n_speakers=1100, seed=5)


@CHUNKS
@pytest.mark.parametrize("n", SIZES)
def test_manifest_clients_written_as_their_dicts(tmp_path, monkeypatch, small_manifest, n,
                                                 chunk_values):
    if chunk_values:
        monkeypatch.setattr(report, "_CHUNK_VALUES", chunk_values)
    partition = partition_by_speaker(small_manifest, n, seed=n)
    texts, offsets = small_manifest.utterance_ids, small_manifest.id_offsets.tolist()
    ends = partition.n_speakers.cumsum().tolist()
    ids = [[u for s in partition.speakers[lo:hi].tolist()
            for u in decode_ids(texts[offsets[s]:offsets[s + 1]])]
           for lo, hi in zip([0] + ends, ends)]
    _assert_written_as(tmp_path / "p.json", partition_payload(partition, {"k": 1}),
                       _dict_partition(partition, ids))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", [0, 1500])  # in the first piece, or after one is written
@pytest.mark.parametrize("section", ["partition", "wall-clock"])
def test_non_finite_column_value_raises_as_json_and_leaves_no_file(tmp_path, value, at,
                                                                   section):
    column = np.full(2000, 2.5)
    column[at] = value
    if section == "partition":
        payload = partition_payload(Partition(
            n_utterances=np.ones(2000, np.int64), total_duration_s=column,
            n_speakers=np.ones(2000, np.int64), seed=0), {})
    else:
        payload = wall_clock_payload(WallClockEstimate(
            device="nx", seconds_per_local_epoch=column, seconds_per_round=np.full(1, 2.5),
            total_seconds=2.5), 1.0, {})
    with pytest.raises(ValueError) as dumped:
        json.dumps(value, allow_nan=False)
    message = re.escape(str(dumped.value))
    with pytest.raises(ConfigError, match=f"^cannot write p\\.json: {message}$"):
        write_json(tmp_path / "p.json", payload)
    assert not any(tmp_path.iterdir())


def _assert_indexed_as_gathered(tmp_path, held, items, picked):
    """Ids written from the runs of ``held`` at ``picked`` read as those
    ``items`` do, and as the gathered ids do."""
    indexed = StreamedList(held, runs=_runs(items, picked))
    gathered = StreamedList(encode_ids([items[i] for i in picked])[0])
    assert bool(indexed) == bool(gathered) == bool(picked)
    assert b"".join(indexed.pieces(3)) == b"".join(gathered.pieces(3))
    write_json(tmp_path / "p.json", {"clients": [{"ids": indexed}]})
    expected = {"clients": [{"ids": [items[i] for i in picked]}]}
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("items,picked", [
    (["a", "bb", "ccc", "dd"], [3, 0, 2]),
    (["aa", "bb", "cc"], [2, 1]),
    (["a" * 10_000, "b", "c"], [1, 0]),
    (["a", "bb"], []),  # a client that holds no row
], ids=["mixed-lengths", "one-length", "one-very-long", "empty"])
def test_indexed_ids_written_as_their_gather(tmp_path, items, picked):
    _assert_indexed_as_gathered(tmp_path, encode_ids(items)[0], items, picked)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), items=st.lists(_TEXT, min_size=1, max_size=8),
       held=st.sampled_from([bytes, bytearray]))
def test_indexed_ids_property(tmp_path, data, items, held):
    picked = data.draw(st.lists(st.integers(0, len(items) - 1), unique=True))
    _assert_indexed_as_gathered(tmp_path, held(encode_ids(items)[0]), items, picked)


@pytest.mark.parametrize("depth", [0, 1, 2, 4, 5])
@pytest.mark.parametrize("runs", [False, True])
def test_ids_written_at_another_depth_are_refused(tmp_path, depth, runs):
    items = ["a", 'b "c" \\', "d\ne", "n\u00e4me"]
    texts = encode_ids(items)[0]
    assert texts == texts_at(items, 3)  # as fl_partition.json lists ids
    written = StreamedList(texts, runs=_runs(items, [2, 0]) if runs else None)
    assert json.loads(b"".join(written.pieces(3))) == \
        ([items[2], items[0]] if runs else items)
    with pytest.raises(ValueError, match=f"^texts not separated as a list at depth {depth}$"):
        b"".join(written.pieces(depth))
    payload = {"ids": written}
    for _ in range(depth - 1):
        payload = {"a": payload}
    with pytest.raises(ConfigError, match=r"^cannot write p\.json: texts not separated"):
        write_json(tmp_path / "p.json", payload if depth else written)
    assert not any(tmp_path.iterdir())


_WRITERS = {"json": lambda path: write_json(path, {"a": [1, 2]}),
            "csv": lambda path: write_csv(path, ["a"], [[1], [2]])}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("blocked", ["report", "temp file"])
def test_unwritable_report_raises_and_leaves_no_temp_file(tmp_path, monkeypatch, writer,
                                                          blocked):
    # a directory where the report goes fails the rename; one where its
    # temp file goes, named by the counter's next number, fails the open
    monkeypatch.setattr(report, "_temp_numbers", itertools.count(5))
    path = tmp_path / "r.out"
    directory = path if blocked == "report" else tmp_path / f".r.out.{os.getpid()}.5.tmp"
    directory.mkdir()
    reason = "Is a directory" if blocked == "report" else "File exists"
    with pytest.raises(ConfigError, match=rf"^cannot write {re.escape(str(path))}: {reason}$"):
        _WRITERS[writer](path)
    assert list(tmp_path.iterdir()) == [directory]
    assert not any(directory.iterdir())


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_write_inside_a_write_to_one_path_leaves_each_report_whole(tmp_path, writer):
    # Each write has a temp file of its own: the inner write's report is
    # whole when it lands, and the outer one then replaces it whole.
    path = tmp_path / "r.out"
    inner = []

    def values(lo, hi):
        write_json(path, {"a": 1})
        inner.append(path.read_text())
        return list(range(lo, hi))

    if writer == "json":
        write_json(path, {"rows": StreamedList(Rows("%d", 2, 1, values))})
        expected = json.dumps({"rows": [0, 1]}, indent=2) + "\n"
    else:
        write_csv(path, ["n"], Rows("%d\n", 2, 1, values))
        expected = "n\n0\n1\n"
    assert inner == ['{\n  "a": 1\n}\n']
    assert path.read_text() == expected
    assert list(tmp_path.iterdir()) == [path]


def test_failed_write_leaves_no_temp_file(tmp_path):
    def full(lo, hi):
        raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "r.json"
    path.write_text("the last report\n")
    with pytest.raises(ConfigError, match=r"^cannot write .*r\.json: No space left on device$"):
        write_json(path, {"ids": StreamedList(Rows("%d", 1, 1, full))})
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "the last report\n"
