import json
import math

import numpy as np
import pytest

from fedspeech.errors import ConfigError
from fedspeech.report import StreamedStrings, write_json


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

    write_json(tmp_path / "p.json",
               payload(lambda s: StreamedStrings(np.array(s, dtype=object))))
    expected = json.dumps(payload(list), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_raises_and_writes_nothing(tmp_path, value):
    with pytest.raises(ConfigError, match=r"^cannot write p\.json: "):
        write_json(tmp_path / "p.json", {"ok": 1.0, "nested": [{"x": value}]})
    assert not any(tmp_path.iterdir())
