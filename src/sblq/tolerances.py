"""Tolerances of the floating-point checks.

TOLERANCES is the central configuration that `rotations` reads and every
report prints; the exact commands print it too, so it lives apart from
`rotations` and `numcheck`, in a module that needs no numpy.
"""

#: central tolerance configuration, printed in every report
TOLERANCES = {
    "spectral": 1e-10,
    "quadrature": 1e-6,
    "superposition": 1e-5,
    "mean_zero": 1e-12,
    "neumann": 1e-14,
}

# thresholds of `sblq rotations verify`, kept out of the printed TOLERANCES
#: largest |mean| of a slice function over a sampled great circle
CIRCLE_MEAN_TOLERANCE = 1e-10
#: largest gap between the direct and the spectral Funk transform
TRANSFORM_CROSS_CHECK_TOLERANCE = 1e-8
