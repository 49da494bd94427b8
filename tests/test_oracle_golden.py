"""`exact_max_clique` must return recorded cliques exactly.

``data/oracle_golden.json`` holds the tuple the branch-and-bound returned
while it still colored each candidate set by a first-fit scan over the color
classes (``helpers.reference_color_order``):

* ``random``: 150 seeded ``gen_gnp`` graphs, n 0–45 and p 0.05–0.95.
* ``named``: c-fat(200,1), c-fat(500,5), Hamming(8,4) and G(100, 0.8, 1).

Not just the clique size but the clique itself is pinned, so a change to the
coloring, the vertex order or the greedy start that reaches another maximum
clique fails here.  Regenerate with
``PYTHONPATH=src python tests/test_oracle_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from quboprep.graphs import Graph, gen_cfat, gen_gnp, gen_hamming
from quboprep.oracle import exact_max_clique

_PATH = Path(__file__).resolve().parent / "data" / "oracle_golden.json"
_NAMED = {
    "cfat(200,1)": lambda: gen_cfat(200, 1),
    "cfat(500,5)": lambda: gen_cfat(500, 5),
    "hamming(8,4)": lambda: gen_hamming(8, 4),
    "gnp(100,0.8,1)": lambda: gen_gnp(100, 0.8, 1),
}


def _random_graphs():
    rng = np.random.default_rng(2003)
    for k in range(150):
        n = int(rng.integers(0, 46))
        p = round(float(rng.uniform(0.05, 0.95)), 2)
        yield {"n": n, "p": p, "seed": k}


def _gnp(case: dict) -> Graph:
    return gen_gnp(case["n"], case["p"], case["seed"])


def regenerate() -> None:
    random = [dict(c, clique=list(exact_max_clique(_gnp(c)))) for c in _random_graphs()]
    named = {name: list(exact_max_clique(build())) for name, build in _NAMED.items()}
    _PATH.write_text(json.dumps({"random": random, "named": named}, separators=(",", ":")) + "\n")


_GOLDEN = json.loads(_PATH.read_text()) if _PATH.exists() else {"random": [], "named": {}}


def test_random_cliques_match_golden():
    cases = _GOLDEN["random"]
    assert len(cases) == 150
    assert {c["n"] for c in cases} >= {0, 1, 45}
    for case in cases:
        assert list(exact_max_clique(_gnp(case))) == case["clique"], case


@pytest.mark.parametrize("name", list(_NAMED))
def test_named_cliques_match_golden(name):
    assert list(exact_max_clique(_NAMED[name]())) == _GOLDEN["named"][name]


if __name__ == "__main__":
    regenerate()
