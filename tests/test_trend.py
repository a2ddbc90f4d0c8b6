import math

import pytest

from fedspeech.errors import ConfigError
from fedspeech.trend import speedup_after, years_to_parity


class TestSpeedup:
    def test_zero_years(self):
        assert speedup_after(0, 18) == 1.0

    def test_one_doubling(self):
        assert speedup_after(1.5, 18) == 2.0

    def test_five_years_exact_law(self):
        # 2^(10/3), a bit above the commonly quoted 8x
        assert speedup_after(5, 18) == pytest.approx(2 ** (10 / 3), rel=1e-12)
        assert speedup_after(5, 18) == pytest.approx(10.079, abs=1e-3)

    def test_negative_years_rejected(self):
        with pytest.raises(ConfigError):
            speedup_after(-1, 18)


class TestParity:
    def test_nx_vs_a40_window(self):
        assert 2026 <= 2022 + years_to_parity(1.78, 0.27, 18) <= 2028

    def test_equal_times(self):
        assert years_to_parity(1.0, 1.0, 18) == 0.0

    def test_ratio_eight_is_three_doublings(self):
        assert years_to_parity(8.0, 1.0, 18) == pytest.approx(4.5, rel=1e-12)

    def test_faster_than_reference_rejected(self):
        with pytest.raises(ConfigError, match="^slow time 0.5 is already faster than 1.0$"):
            years_to_parity(0.5, 1.0, 18)

    def test_monotone_in_ratio_and_doubling_period(self):
        years = [years_to_parity(r, 1.0, 18) for r in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(years, years[1:]))
        periods = [years_to_parity(6.0, 1.0, m) for m in (12, 18, 24)]
        assert all(a < b for a, b in zip(periods, periods[1:]))

    def test_composition_round_trip(self):
        for ratio in (1.5, 3.0, 6.59, 31.3):
            recovered = speedup_after(years_to_parity(ratio, 1.0, 18), 18)
            assert math.isclose(recovered, ratio, rel_tol=1e-12)

    @pytest.mark.parametrize("slow,fast,months,message", [
        (1.0, 0.0, 18, "fast time must be > 0"),
        (2.0, 1.0, math.nan, "doubling period must be finite and > 0, got nan"),
        (2.0, 1.0, 0.0, "doubling period must be finite and > 0, got 0.0"),
    ], ids=["fast-time-zero", "doubling-nan", "doubling-zero"])
    def test_bad_input_rejected_on_one_line(self, slow, fast, months, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            years_to_parity(slow, fast, months)
