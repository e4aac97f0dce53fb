"""Names that perfbench reaches into srdkit by: an API edit must not drop them.

perfbench's tracer looks each traced function up with ``getattr`` on the
module it names and wraps the one function object wherever srdkit holds it;
its workloads also read ``FoldScheme.folds`` and ``SrdDistribution.exact``.
"""

import importlib
import importlib.util
from pathlib import Path

import srdkit
import srdkit.core
import srdkit.plot

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_on_its_module():
    traced = _traced()
    assert traced, "perfbench traces no names"
    for layer, names in traced.items():
        module = importlib.import_module(f"srdkit.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"srdkit.{layer} lacks {missing}"


def test_pairwise_srd_is_one_function_in_core_plot_and_the_package():
    assert srdkit.plot.pairwise_srd is srdkit.core.pairwise_srd is srdkit.pairwise_srd
    assert srdkit.plot.PairwiseMatrix is srdkit.core.PairwiseMatrix is srdkit.PairwiseMatrix


def test_attributes_that_perfbench_checks_exist():
    scheme = srdkit.make_folds(6, 3, seed=0)
    assert scheme.folds == tuple(tuple(rows.tolist()) for rows in scheme.rows)
    assert srdkit.exact_distribution(4).exact is True
