"""Numerical laboratory for truncated simplex-type multilinear Hilbert forms.

Two models of the same object: a dyadic model built from Haar functions on
the unit cube and a continuous model built from Gaussian-mollified kernel
truncations.  The package evaluates both, verifies the exact identities and
single-scale inequalities they satisfy, and measures how the coefficient-
optimal norm estimates grow with the number of active scales.  Import the
submodules (`simplexht.core`, `.dyadic`, `.continuous`, `.identities`,
`.harness`, `.plotting`, `.cli`) for their functions.
"""

__version__ = "0.1.0"
