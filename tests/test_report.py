import enum
import errno
import json
import math
import re
from json.encoder import encode_basestring_ascii
from pathlib import PurePosixPath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedspeech.errors import ConfigError
from fedspeech import report
from fedspeech.federation import encode_ids, schedule_rounds
from fedspeech.report import StreamedList, schedule_payload, write_csv, write_json


def _runs(items, picked):
    """The (start, end) offsets in ``encode_ids(items)`` of the texts of the
    items at ``picked``."""
    offsets = np.cumsum([0] + [len(encode_basestring_ascii(i)) + 1 for i in items])
    picked = np.array(picked, dtype=np.int64)
    return offsets[picked], offsets[picked + 1]


# Streamed lists of strings as a manifest holds utterance ids: their
# newline-ended JSON texts in one bytes object (``ids``), or picked one run
# per text from a bytearray (``texts``).
STREAMED = {
    "ids": lambda items: StreamedList(encode_ids(items)),
    "texts": lambda items: StreamedList(bytearray(encode_ids(items)),
                                        runs=_runs(items, range(len(items)))),
    "ints": lambda items: StreamedList(items, int.__repr__),  # as json.dumps writes ints
    # items whose JSON texts span lines, as a schedule's rounds do
    "dicts": lambda items: StreamedList(items, lambda v: json.dumps(v, indent=2,
                                                                     sort_keys=True)),
}


def test_streamed_strings_written_as_json_dump_writes_lists(tmp_path):
    strings = {"z": ["b", 'a "quoted" \\ id', "n\u00e4me", "\x01", " "], "empty": [],
               "x": ["x"], "more": ["y", "z"], "deep": ["deep"]}

    def payload(wrap):
        return {
            "z": wrap(strings["z"]),
            "clients": [{"ids": wrap(strings["empty"]), "n": 1},
                        {"ids": wrap(strings["x"]), "more": wrap(strings["more"])}],
            "meta": {"pair": (1, 2), "nested": [[wrap(strings["deep"])]]},
            "f": 1.5,
        }

    expected = json.dumps(payload(list), indent=2, sort_keys=True) + "\n"
    for kind in ("ids", "texts"):
        write_json(tmp_path / "p.json", payload(STREAMED[kind]))
        assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected


def test_a_string_equal_to_the_placeholder_is_written_as_itself(tmp_path):
    def payload(strings, ints):
        return {"name": "\x00streamed strings", "ids": strings(["a", "\x00streamed strings"]),
                "rounds": [{"selected": ints([3, 7])}, {"\x00streamed strings": ints([])}]}

    write_json(tmp_path / "p.json", payload(STREAMED["ids"], STREAMED["ints"]))
    expected = json.dumps(payload(list, list), indent=2, sort_keys=True) + "\n"
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


# Characters JSON escapes or ensure_ascii writes as \u escapes, then any other
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\x80ä \U0001f600'),
                          st.characters()), max_size=6)
_KEYS = st.text("ab\"\x7fä", max_size=2)
_INTS = st.integers(-2**70, 2**70)
_STREAMED_LISTS = st.one_of(
    st.builds(_Streamed, st.sampled_from(["ids", "texts"]), st.lists(_TEXT, max_size=5)),
    st.builds(_Streamed, st.just("ints"), st.lists(_INTS, max_size=5)),
    st.builds(_Streamed, st.just("dicts"), st.lists(st.dictionaries(
        _KEYS, _INTS | st.lists(_INTS, max_size=3), max_size=3), max_size=4)))
class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Colour(str, enum.Enum):
    RED = "red"
    QUOTE = '"q\u00e4"'


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# values json writes as numbers or strings without being one of their
# plain types: int and str subclasses, a float subclass, and objects that
# default=str writes
_LOOKALIKES = st.one_of(st.sampled_from(list(_Level) + list(_Colour)), _FLOATS.map(np.float64),
                        st.builds(PurePosixPath, st.text("ab/\u00e4", max_size=4)))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT, _STREAMED_LISTS, _FLOATS,
                    _LOOKALIKES, st.just(-0.0), st.sampled_from([[], {}, ()]))
# keys json can sort: strings, numbers (bool and IntEnum among them), or a
# lone None; each non-str key is written as a string
_NUMBER_KEYS = st.one_of(st.booleans(), st.integers(-3, 3), _FLOATS, st.just(-0.0),
                         st.sampled_from(list(_Level)))


def _dicts(values, max_size):
    return (st.dictionaries(_KEYS, values, max_size=max_size)
            | st.dictionaries(_NUMBER_KEYS, values, max_size=max_size)
            | st.dictionaries(st.none(), values, max_size=1))


_PAYLOADS = _dicts(st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | _dicts(inner, 3), max_leaves=12), 4)


def _build(node, streamed):
    if isinstance(node, _Streamed):
        return STREAMED[node.kind](node.items) if streamed else node.items
    if isinstance(node, dict):
        return {k: _build(v, streamed) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(_build(v, streamed) for v in node)
    return node


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_streamed_lists_written_as_json_dumps_writes_them(tmp_path, payload):
    write_json(tmp_path / "p.json", _build(payload, streamed=True))
    expected = json.dumps(_build(payload, streamed=False), indent=2, sort_keys=True,
                          default=str)
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["depth-2", "depth-3", "after-streamed", "key"])
def test_non_finite_in_a_flat_list_raises_and_leaves_no_file(tmp_path, value, where):
    # the ids sort first, so their chunks are in the temp file before the
    # non-finite number is met
    payload = {"depth-2": {"a": {"b": [1.0, value]}},
               "depth-3": {"a": [{"b": [2, value]}], "c": 1},
               "after-streamed": {"a-ids": StreamedList(encode_ids(["x", "y"])),
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
    chunks = [bytes(chunk) for chunk in payload["rounds"].chunks("  ")]
    assert len(chunks) == -(-5000 // report._PER_CHUNK)
    assert max(map(len, chunks)) * 10 < len(b"".join(chunks))
    write_json(tmp_path / "s.json", payload)
    expected = {"meta": {}, "total_clients": 30, "per_round": 4, "seed": 3,
                "rounds": [{"round_id": i, "selected": selected}
                           for i, selected in enumerate(schedule.selected.tolist())]}
    assert (tmp_path / "s.json").read_text() == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _assert_indexed_as_gathered(tmp_path, held, items, picked):
    """Ids written from the runs of ``held`` at ``picked`` read as those
    ``items`` do, and as the gathered ids do."""
    indexed = StreamedList(held, runs=_runs(items, picked))
    gathered = StreamedList(encode_ids([items[i] for i in picked]))
    assert bool(indexed) == bool(gathered) == bool(picked)
    if picked:
        assert b"".join(indexed.chunks("    ")) == b"".join(gathered.chunks("    "))
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
    _assert_indexed_as_gathered(tmp_path, encode_ids(items), items, picked)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), items=st.lists(_TEXT, min_size=1, max_size=8),
       held=st.sampled_from([bytes, bytearray]))
def test_indexed_ids_property(tmp_path, data, items, held):
    picked = data.draw(st.lists(st.integers(0, len(items) - 1), unique=True))
    _assert_indexed_as_gathered(tmp_path, held(encode_ids(items)), items, picked)


_WRITERS = {"json": lambda path: write_json(path, {"a": [1, 2]}),
            "csv": lambda path: write_csv(path, ["a"], [[1], [2]])}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("blocked", ["report", "temp file"])
def test_unwritable_report_raises_and_leaves_no_temp_file(tmp_path, writer, blocked):
    # a directory where the report goes fails the rename; one where its
    # temp file goes fails the open
    path = tmp_path / "r.out"
    directory = path if blocked == "report" else tmp_path / "r.out.tmp"
    directory.mkdir()
    with pytest.raises(ConfigError,
                       match=rf"^cannot write {re.escape(str(path))}: Is a directory$"):
        _WRITERS[writer](path)
    assert list(tmp_path.iterdir()) == [directory]
    assert not any(directory.iterdir())


def test_failed_write_leaves_no_temp_file(tmp_path):
    def full(item):
        raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "r.json"
    path.write_text("the last report\n")
    with pytest.raises(ConfigError, match=r"^cannot write .*r\.json: No space left on device$"):
        write_json(path, {"ids": StreamedList([1], full)})
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "the last report\n"
