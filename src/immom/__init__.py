"""Exact moments of immanants of submatrices of Haar-random unitaries.

The package computes, in exact rational arithmetic, the mean squared modulus
and the fourth absolute moment of ``Imm^lambda M`` where ``M`` is an ``n x n``
submatrix of a Haar-distributed ``d x d`` unitary and ``lambda`` is a partition
of ``n``.  Results are rational functions of the dimension ``d`` with integer
linear denominator factors.  A Monte Carlo sampler provides independent
statistical verification of every closed form.

Main entry points:

- :func:`mean` — exact mean of ``|Imm^lambda M|^2``.
- :func:`second_moment` — exact mean of ``|Imm^lambda M|^4``.
- :func:`leading_coefficient` — integer governing the large-``d`` decay of the
  fourth moment.
- :func:`det_moment` / :func:`perm_fourth_conjecture` — closed forms for the
  determinant and permanent special cases.
- :func:`weingarten` / :func:`monomial_integral` — unitary-group integrals of
  monomials in matrix entries.
- :func:`estimate_moment` — Monte Carlo estimate with standard error.

The ``immom`` console script exposes the same operations from the shell.
"""

from .partitions import (
    Dominance,
    Partition,
    as_partition,
    conjugate,
    dim_symmetric,
    dim_unitary,
    dominates,
    hook_product,
    parse_partition,
    partitions_of,
    unitary_numerator,
)
from .symgroup import Permutation, all_permutations
from .characters import CharacterTable, character, character_table, class_size
from .ratfun import RationalFunction
from .weingarten import monomial_integral, weingarten
from .moments import (
    det_moment,
    leading_coefficient,
    mean,
    mean_dominance_check,
    perm_fourth_conjecture,
    second_moment,
)
from .sampler import (
    MomentEstimate,
    estimate_moment,
    estimate_monomial,
    haar_block,
    haar_unitary,
    immanant,
    moment_scan,
    permanent_batch,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "Dominance",
    "MomentEstimate",
    "Partition",
    "Permutation",
    "RationalFunction",
    "all_permutations",
    "as_partition",
    "character",
    "character_table",
    "class_size",
    "conjugate",
    "det_moment",
    "dim_symmetric",
    "dim_unitary",
    "dominates",
    "estimate_moment",
    "estimate_monomial",
    "haar_block",
    "haar_unitary",
    "hook_product",
    "immanant",
    "leading_coefficient",
    "mean",
    "mean_dominance_check",
    "moment_scan",
    "monomial_integral",
    "parse_partition",
    "partitions_of",
    "perm_fourth_conjecture",
    "permanent_batch",
    "second_moment",
    "unitary_numerator",
    "weingarten",
    "__version__",
]
