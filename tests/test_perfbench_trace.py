"""The benchmark's tracer patches jpkernel names by identity; keep them patchable.

perfbench/spans.py wraps `kernel_H_batch` wherever a jpkernel module holds it
and the `norm`, `grad_norms` and `diff_norm` each kernel class defines itself.
A rename or a move into a base class would break only `perfbench/run.py
--trace 1`, so the install/uninstall round trip is checked here.
"""

import pathlib
import sys

from jpkernel import czkernels, kernel

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

METHODS = ("norm", "grad_norms", "diff_norm")


def test_tracer_install_round_trip():
    classes = [getattr(czkernels, name) for name in spans.FAMILIES]
    batch = kernel.kernel_H_batch
    methods = {(cls, m): cls.__dict__[m] for cls in classes for m in METHODS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kernel.kernel_H_batch is not batch
        assert czkernels.kernel_H_batch is not batch
        for (cls, m), fn in methods.items():
            assert cls.__dict__[m] is not fn
    finally:
        tracer.uninstall()
    assert kernel.kernel_H_batch is batch
    assert czkernels.kernel_H_batch is batch
    for (cls, m), fn in methods.items():
        assert cls.__dict__[m] is fn, f"{cls.__name__}.{m}"
