"""Exact barycentric exterior calculus on simplicial and prismal complexes.

The package builds the two prismal sheaves attached to a simplicial
morphism, computes Whitney forms and their relative calculus with exact
rational coefficients, and constructs relative primitives of fiberwise-
exact piecewise-polynomial forms, with every structural identity encoded
as an executable check.
"""

__version__ = "0.1.0"
