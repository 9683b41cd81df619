"""Exact arithmetic for two-row symmetric group representations.

The package realizes the irreducible representations labeled by two-row
Young diagrams inside spaces of square-free multilinear forms, builds their
Gelfand-Tsetlin bases from closed formulas, and studies the spectral
measures of vectors induced along a direction sequence, which turn out to
be Markov chains on the two-row branching graph with an explicit kernel.
Everything is exact: coefficients are ``int`` where integral and
``Fraction`` where a division happens; nothing is floating point.

Import from the layer that defines a name: ``tworow.ygraph`` (shapes and
tableaux), ``tworow.forms``, ``tworow.gz``, ``tworow.markov`` and
``tworow.serialize``; ``tworow.verify`` and ``tworow.cli`` hold the
self-checks and the command line.
"""

__version__ = "0.1.0"
