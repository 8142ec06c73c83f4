import ast
from pathlib import Path

import numpy as np

from robustbo import search
from robustbo.search import DomainSpec, maximize_acquisition


def test_the_search_maximizes_any_acquisition_over_a_domain():
    line = DomainSpec.from_bounds([[0.0, 1.0]], 101)
    assert np.array_equal(maximize_acquisition(line, lambda X: -(X[:, 0] - 0.37) ** 2), line.grid[37])
    # a separable maximum on the coordinate lines: the first sweep reaches it, in 2*d + 1 calls
    box, calls = DomainSpec.from_bounds([[-1.0, 1.0], [0.0, 2.0]]), []

    def acquisition(X):
        calls.append(X.shape[0])
        return -((X[:, 0] - 0.25) ** 2 + (X[:, 1] - 1.5) ** 2)

    assert np.array_equal(maximize_acquisition(box, acquisition), [0.25, 1.5])
    assert calls == [box.n_starts * box.coord_grid] * 4 + [box.n_starts]


def test_the_search_module_imports_nothing_from_the_library():
    tree = ast.parse(Path(search.__file__).read_text())
    assert not [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
