"""The rank path against the adjacency-test oracle on the paper's networks.

:mod:`tests.core.adjacency_oracle` repeats a whole ``compute_efms`` solve
with every reversible reaction split and each pair accepted by the
combinatorial adjacency test instead of the rank test.  Both must reach
the same EFM set under the dynamic and the paper row ordering.
"""

import pytest

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.models.toy import toy_network
from repro.models.variants import yeast_1_small
from tests.core.adjacency_oracle import solve_with_adjacency_oracle


@pytest.mark.parametrize("ordering", ["dynamic", "paper"])
@pytest.mark.parametrize(
    "network,n_efms", [(toy_network, 8), (yeast_1_small, 530)], ids=["toy", "y1"]
)
def test_oracle_equals_rank(network, n_efms, ordering):
    net = network()
    options = AlgorithmOptions(ordering=ordering)
    by_rank = compute_efms(net, options=options)
    by_tree = solve_with_adjacency_oracle(compute_efms, net, options=options)
    assert by_rank.n_efms == by_tree.n_efms == n_efms
    assert by_rank.same_modes_as(by_tree)
    by_tree.validate()
