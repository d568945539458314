"""Build the optional compiled integrator core.

The package works without the extension (a pure NumPy fallback is selected at
import time), so optional=True turns a compiler failure into a pure-Python
install instead of aborting it.
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
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
