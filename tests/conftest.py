import os
from pathlib import Path

import pytest

from idealtop import corpus, laws, operators, search
from idealtop.space import GroundSet, Space, parse_space

# pytest puts src/ on sys.path (pyproject's ``pythonpath``); the CLI tests'
# ``python -m idealtop`` children need it on PYTHONPATH as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def registry_names() -> list[str]:
    """Every registry law name: each head with each local-function alias,
    and ``family-cap-closed`` with each open-set kind; 6 * 11 + 5 = 71."""
    names = [
        f"{head}:{arg}"
        for head in laws.LAW_TEMPLATES
        for arg in (operators.KINDS if head == "family-cap-closed" else operators.LOCAL_FN_ALIASES)
    ]
    assert len(names) == 71
    return names


@pytest.fixture(scope="session")
def space_a() -> Space:
    """Four points, opens {}, {w1}, {w2}, {w1,w2}, X; ideal {{}, {w3}}."""
    return parse_space(corpus.space_text("ex-3.3-1"))


@pytest.fixture(scope="session")
def space_b() -> Space:
    """Four points, opens {}, {w3,w4}, {w1,w3,w4}, {w2,w3,w4}, X; ideal {{}, {w1}}."""
    return parse_space(corpus.space_text("ex-3.3-2"))


def _spaces_up_to(max_points: int) -> list[Space]:
    out = []
    for n in range(1, max_points + 1):
        ground = GroundSet(search.default_labels(n))
        for topo in search.enumerate_topologies(n):
            for ideal in search.enumerate_ideals(n):
                out.append(Space(ground, topo, ideal))
    return out


@pytest.fixture(scope="session")
def small_spaces() -> list[Space]:
    """Every labeled space on up to three points: 1*2 + 4*4 + 29*8 = 250."""
    spaces = _spaces_up_to(3)
    assert len(spaces) == 250
    return spaces


@pytest.fixture(scope="session")
def corpus_spaces() -> list[Space]:
    return [entry.space() for entry in corpus.ENTRIES]
