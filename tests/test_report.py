import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedspeech.errors import ConfigError
from fedspeech.federation import MAX_ID_PADDING, encode_ids
from fedspeech.report import StreamedList, write_json

# Streamed lists of strings as a manifest holds utterance ids: their JSON
# texts in a fixed-width bytes array when little of it is padding (``ids``),
# else in an object array of str; ``texts`` always takes the object array.
STREAMED = {
    "ids": lambda items: StreamedList(encode_ids(items)),
    "texts": lambda items: StreamedList(np.array(list(map(encode_basestring_ascii, items)),
                                                 dtype=object)),
    "ints": StreamedList.ints,
}


def test_ids_padded_past_the_bound_are_held_as_str():
    assert encode_ids(["a" * 10, "b" * 10, "c"]).dtype == "S12"
    wide = encode_ids(["a" * 100, "b", "c"])
    assert wide.dtype == object and wide.tolist() == ['"' + "a" * 100 + '"', '"b"', '"c"']
    assert 102 * 3 > MAX_ID_PADDING * (102 + 3 + 3)


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

    write_json(tmp_path / "p.json", payload(STREAMED["ids"], StreamedList.ints))
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
    st.builds(_Streamed, st.just("ints"), st.lists(_INTS, max_size=5)))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT, _STREAMED_LISTS,
                    st.floats(allow_nan=False, allow_infinity=False))
_PAYLOADS = st.dictionaries(_KEYS, st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=12), max_size=4)


def _build(node, streamed):
    if isinstance(node, _Streamed):
        return STREAMED[node.kind](node.items) if streamed else node.items
    if isinstance(node, dict):
        return {k: _build(v, streamed) for k, v in node.items()}
    if isinstance(node, list):
        return [_build(v, streamed) for v in node]
    return node


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_streamed_lists_written_as_json_dumps_writes_them(tmp_path, payload):
    write_json(tmp_path / "p.json", _build(payload, streamed=True))
    expected = json.dumps(_build(payload, streamed=False), indent=2, sort_keys=True)
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected + "\n"
