"""Build the optional compiled integrator core.

The package works without the extension (the pure-Python scalar kernels in
_refkernels, bit-identical to the C ones, are selected at import time), so
optional=True turns a compiler failure into a pure-Python install instead of
aborting it.  -ffp-contract=off keeps the compiler from fusing a multiply and
an add into one FMA (the default of GCC on aarch64, for one), which would
round differently from the pure kernels.
"""

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "stiffgeo._fastkernels",
            sources=["src/stiffgeo/_fastkernels.c"],
            include_dirs=[numpy.get_include()],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
