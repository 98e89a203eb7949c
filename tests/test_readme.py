"""README quotes every public cost limit together with its current value,
and README and the Frobenius check's docstrings quote the additions that
the check makes."""

import math
import pathlib
import re

import pytest

from _oracles import frobenius_additions
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
    (quat, "MEMO_PRIMES"),
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


def test_readme_quotes_frobenius_additions():
    made = [frobenius_additions(curves.find_q14_curve(p))[1] for p in (17, 127)]
    quote = "{:,} additions at p = 17 and {:,} at p = 127".format(*made)
    for where, text in [
        ("README", README.read_text()),
        ("_exponent_divides", curves._exponent_divides.__doc__),
        ("verify_frobenius_scalar", curves.verify_frobenius_scalar.__doc__),
    ]:
        assert quote in " ".join(text.split()), f"{where} does not quote {quote}"
