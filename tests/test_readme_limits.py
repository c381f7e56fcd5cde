"""README's "Limits" section quotes the package's caps.  Each quote below is
rendered from the live constant, so a cap that changes without its README
line fails here."""

from pathlib import Path

import pytest

from hamsync import gf2codes, harness, hashing, probproto, transport

README = Path(__file__).resolve().parents[1] / "README.md"


def _limits_text() -> str:
    """The Limits section with its line wrapping undone."""
    section = README.read_text().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


def _two_to(value: int) -> str:
    """2^e for a power of two, the plain number otherwise."""
    e = value.bit_length() - 1
    return f"2^{e}" if value == 1 << e else str(value)


def _ten_to(value: int) -> str:
    """m * 10^e, or 10^e when m is 1, for the least m with no trailing zero."""
    m = str(value).rstrip("0")
    e = len(str(value)) - len(m)
    return f"10^{e}" if m == "1" else f"{m} * 10^{e}"


LIMITS = [
    (
        gf2codes,
        "WALK_BUDGET",
        "{:,}".format,
        ["Vol(r, N) <= {}", "Vol(r, n) <= {}", "`coloring` needs Vol(2r - 1, n) <= {}"],
    ),
    (gf2codes, "LEADER_MAX_N", str, ["2 <= k <= {}"]),
    (gf2codes, "_RANDOM_CODE_BUDGET", _two_to, ["n * (n - k) <= {}"]),
    (probproto, "_RS_LANE_BUDGET", _two_to, ["(m + s) * s <= {}"]),
    (harness, "_EXHAUSTIVE_LIMIT", _ten_to, ["2^n * Vol(r, n) <= {}"]),
    (hashing, "_PRIME_POOL_BUDGET", _two_to, ["at most {} primes"]),
    (hashing, "_MR_EXACT_BELOW", "{:,}".format, ["exact below {}"]),
    (transport, "_IO_TIMEOUT_S", "{:g}".format, ["more than {} seconds"]),
]


@pytest.mark.parametrize(
    "module, name, render, phrases",
    LIMITS,
    ids=[f"{module.__name__.rsplit('.', 1)[1]}.{name}" for module, name, _, _ in LIMITS],
)
def test_readme_limits_quote_the_live_constant(module, name, render, phrases):
    text = _limits_text()
    for phrase in phrases:
        assert phrase.format(render(getattr(module, name))) in text, (name, phrase)


def test_quotes_render_as_the_readme_writes_them():
    assert (_two_to(1 << 20), _two_to(3 << 20)) == ("2^20", "3145728")
    assert (_ten_to(50_000_000), _ten_to(1_000_000), _ten_to(7)) == ("5 * 10^7", "10^6", "7 * 10^0")
