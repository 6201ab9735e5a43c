import pytest

from pairstats._fileio import parse_mapping, parse_matrix
from pairstats.errors import ValidationError


@pytest.mark.parametrize(
    ("call", "match"),
    [
        (lambda: parse_matrix("# n=1\n1,2\n3\n", "rho", {"n": int}), "ragged"),
        (lambda: parse_matrix("# n=1\n", "rho", {"n": int}), "missing"),
        (lambda: parse_matrix("n=1\n1\n", "rho", {"n": int}), "header"),
        (lambda: parse_mapping("seed=1\npulses\n", "config"), "key=value"),
    ],
    ids=["ragged rows", "no rows", "no header", "line without '='"],
)
def test_raises(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
