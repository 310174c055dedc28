"""The benchmark's tracer patches jpkernel names by identity; keep them patchable.

perfbench/spans.py wraps `kernel_H_batch` and `basis.trig_poly_table` wherever
a jpkernel module holds them, and the `norm`, `grad_norms` and `diff_norm`
each kernel class defines itself.
A rename or a move into a base class would break only `perfbench/run.py
--trace 1`, so the install/uninstall round trip is checked here, and so is
that `run.clear_caches` empties the basis tables' cache, which makes each
traced pass start cold.
"""

import pathlib
import sys

from jpkernel import basis, czkernels, kernel, operators
from jpkernel.params import JacobiParams

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402

METHODS = ("norm", "grad_norms", "diff_norm")
# The modules whose basis tables the traced run counts (basis.table_calls).
TABLE_USERS = (basis, kernel, czkernels, operators)


def test_tracer_install_round_trip():
    classes = [getattr(czkernels, name) for name in spans.FAMILIES]
    batch = kernel.kernel_H_batch
    table = basis.trig_poly_table
    methods = {(cls, m): cls.__dict__[m] for cls in classes for m in METHODS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kernel.kernel_H_batch is not batch
        assert czkernels.kernel_H_batch is not batch
        for mod in TABLE_USERS:
            assert mod.trig_poly_table is not table, mod.__name__
        for (cls, m), fn in methods.items():
            assert cls.__dict__[m] is not fn
    finally:
        tracer.uninstall()
    assert kernel.kernel_H_batch is batch
    assert czkernels.kernel_H_batch is batch
    for mod in TABLE_USERS:
        assert mod.trig_poly_table is table, mod.__name__
    for (cls, m), fn in methods.items():
        assert cls.__dict__[m] is fn, f"{cls.__name__}.{m}"


def test_clear_caches_empties_the_basis_cache():
    basis.trig_poly_table(JacobiParams(0.5, 0.5), 10, 1.0)
    assert basis._holder.cache_info().currsize > 0
    run.clear_caches()
    assert basis._holder.cache_info().currsize == 0
