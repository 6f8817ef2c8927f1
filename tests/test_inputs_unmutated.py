"""The read paths never mutate the graph they are handed.

The approx tier, canonicalization and the distance oracle all read a
request's :class:`~repro.graphs.graph.Graph` — on the wire the same object
also feeds the cache key and the answer check.  Each must leave it equal
to a ``copy()`` taken beforehand with an unchanged ``version``, on the
dense path (small ``n``) and on the blocked oracle path (large ``n``,
where the kernel's bit step and its adjacency bitset come into play).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import approx_labeling
from repro.graphs import generators as gen
from repro.graphs.analysis import get_analysis
from repro.graphs.graph import Graph
from repro.labeling.spec import L21, LpSpec
from repro.service.canonical import canonical_form, canonical_instance

GRAPHS = {
    "diam2-24": lambda: gen.random_graph_with_diameter_at_most(24, 2, seed=1),
    "split-300": lambda: gen.random_split_graph(150, 150, p=0.4, seed=2),
    "gnp-320": lambda: gen.random_gnp(320, 0.3, seed=3),
    "path-300": lambda: gen.path_graph(300),
}


def _unchanged(run, g: Graph) -> None:
    before = g.copy()
    version = g.version
    indptr, indices = (a.copy() for a in g.csr_arrays())
    run(g)
    assert g == before
    assert g.version == version
    assert np.array_equal(g.csr_arrays()[0], indptr)
    assert np.array_equal(g.csr_arrays()[1], indices)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_approx_labeling_leaves_input_unchanged(name):
    _unchanged(lambda g: approx_labeling(g, LpSpec((3, 2, 1))), GRAPHS[name]())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_canonical_form_and_instance_leave_input_unchanged(name):
    def run(g):
        form = canonical_form(g, L21)
        canonical_instance(form, g)

    _unchanged(run, GRAPHS[name]())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_oracle_reads_leave_input_unchanged(name):
    def run(g):
        a = get_analysis(g)
        a.row(g.n - 1)
        a.rows(0, g.n)
        for _lo, _hi, _blk in a.iter_row_blocks():
            pass

    _unchanged(run, GRAPHS[name]())
