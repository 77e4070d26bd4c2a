"""Exact classification engine for rank-3 fusion rings with premodular data.

Subpackages and modules:

- ``exactnum``: integer polynomials, real algebraic numbers, roots of unity,
  complex ball arithmetic.
- ``fusion``: rank-3 based rings, axioms, canonical forms, enumeration,
  Frobenius-Perron dimensions.
- ``characters``: the three ring homomorphisms of a rank-3 ring and their
  Galois orbit structure.
- ``rules``: the branch rules of the case analysis (symmetric, nonmodular,
  and the modular case rules by Galois type) with their certificates.
- ``premodular``: datum types, exact S-matrices from (dimension, twist)
  data, structure classification, and the ribbon-witness search.
- ``classify``: parameter enumeration, ring reports and the full
  classification driver.

Each module imports only those listed above it.
- ``cli``: command-line interface.
"""

__version__ = "0.1.0"
