"""Exact counting laboratory for lozenge tilings of triangular-lattice regions.

Region builders live in ``lattice``, dual matching graphs and symmetry
machinery in ``duality``, the exact counting engines in ``counting``,
closed product formulas in ``formulas``, the identity catalog in
``verify``, drawings in ``svg``, and the command line in ``cli``.
"""

from .counting import (count_matchings, count_matchings_oracle,
                       count_matchings_pfaffian, count_symmetric_tilings,
                       count_tilings, count_tilings_free,
                       enumerate_matchings, mgf)
from .duality import (FactorSplit, MatchGraph, dual_graph,
                      factorization_split, graph_text, quotient_graph,
                      remove_loop_vertex, symmetry, symmetry_group)
from .errors import (BudgetError, ContractError, FormatError,
                     FormulaRangeError, HoleCollisionError, LozlabError,
                     ParameterError, SymmetryAbsentError)
from .formulas import (HoleLists, cored_count, d_count, eval_Q, eval_S,
                       hole_lists, holed_count_even, holed_count_odd,
                       macmahon_box)
from .lattice import (Region, TriCell, cell_at, cored_hexagon, d_region,
                      deserialize_region, hexagon, holed_hexagon,
                      rbar_region, serialize_region)
from .svg import first_tiling, region_svg
from .verify import IDENTITY_IDS, IdentityCheck, SweepReport, check, default_grid, sweep

__version__ = "0.1.0"
