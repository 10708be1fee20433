"""The README's Library example runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    stats, dual, target = scope["stats"], scope["dual"], scope["target"]
    assert scope["report"].converged
    assert dual.edge_set() == stats.adjacency_set()
    assert np.array_equal(dual.facet_measures, stats.facet_measures)
    assert scope["cost"] > 0.0
    landed = {tuple(y) for y in np.unique(scope["mapped"], axis=0).tolist()}
    assert landed <= {tuple(y) for y in target.points.tolist()}
