"""README quotes every public cost limit together with its current value."""

import math
import pathlib
import re

import pytest

from spinel import arith, curves, fields, isogeny, quat

README = pathlib.Path(__file__).parent.parent / "README.md"

LIMITS = [
    (arith, "DEFAULT_FACTOR_BOUND"),
    (arith, "PRIMALITY_BOUND"),
    (arith, "MAX_POWER_BITS"),
    (fields, "MAX_FIELD_ORDER"),
    (curves, "MAX_CENSUS_EVALUATIONS"),
    (isogeny, "MAX_TRACE_SCAN"),
    (quat, "DEFAULT_SEARCH_BOUND"),
]


def _spellings(value: int) -> set[str]:
    """value in decimal, and as 2^k or 10^k when it is such a power."""
    out = {str(value)}
    for base in (2, 10):
        k = round(math.log(value, base))
        if base**k == value:
            out.add(f"{base}^{k}")
    return out


@pytest.mark.parametrize("module,name", LIMITS, ids=[name for _, name in LIMITS])
def test_readme_quotes_limit(module, name):
    text = " ".join(README.read_text().split())
    value = getattr(module, name)
    label = f"`{module.__name__.rsplit('.', 1)[1]}.{name}` = "
    quotes = [re.escape(label + s) + r"(?![\d^])" for s in _spellings(value)]
    assert any(re.search(q, text) for q in quotes), f"README does not quote {label}{value}"
