import pytest

import morlbench
from morlbench import envs, pareto


@pytest.mark.parametrize("module", [morlbench, pareto, envs], ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
