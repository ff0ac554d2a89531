"""Kernel-side verification: symbol bounds, extension, and form identities.

Samples Mikhlin bounds for the shipped kernel kinds, extends the truncated
odd 1/t profile by a Gaussian direction, and runs the change-of-variables
and narrow-kernel-limit checks on the bilinear Hilbert transform datum.

Run:  python demos/04_kernel_checks.py
"""

from sblq.core import random_equivalence
from sblq.fixtures import bht
from sblq.numcheck import (
    FormSpec, GaussianFunction, NarrowGaussian, TruncatedOdd,
    check_equivalence_invariance, delta_limit_check, eval_form, extend_kernel,
    normalized_kernel, verify_mikhlin,
)


def main():
    gaussian = normalized_kernel(NarrowGaussian(1, 1.0))
    report = verify_mikhlin(gaussian)
    print(f"gaussian kernel:      {report.render()}")

    ext = extend_kernel(TruncatedOdd(), 1)
    report = verify_mikhlin(ext)
    print(f"extended odd kernel:  {report.render()}")
    for alpha, bound in report.table:
        print(f"    order {alpha}: sampled bound {bound:.4f}")
    heavy = verify_mikhlin(ext.scaled(100.0))
    print(f"same kernel x100:     {heavy.render()}")

    datum = bht()
    funcs = (GaussianFunction.tensor([0], [1]),
             GaussianFunction.tensor([1], [1]),
             GaussianFunction.tensor([0], [2]))
    spec = FormSpec(datum, NarrowGaussian(1, 0.8), funcs)
    value, err = eval_form(spec)
    print(f"\nbilinear Hilbert datum, Gaussian kernel: value {value:.8f} "
          f"(rounding bound {err:.1e})")

    for seed in (1, 2, 3):
        residual, tol = check_equivalence_invariance(spec, random_equivalence(datum, seed))
        print(f"  equivalence seed {seed}: residual {residual:.2e} <= {tol:.2e}")

    residuals, reference = delta_limit_check(datum, funcs)
    print(f"  narrow-kernel limit (reference {reference:.6f}):")
    for width, res in zip((0.25, 0.125, 0.0625), residuals):
        print(f"    width {width}: residual {res:.2e}")


if __name__ == "__main__":
    main()
