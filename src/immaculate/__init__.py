"""Exact computations with the Schur-like basis of noncommutative symmetric
functions: products, Pieri rules, tableau enumeration, and the involution
machinery behind the cancellation-free left Pieri rule."""

from .compositions import (
    Permutation,
    add_prefix,
    horizontal_strip_successors,
    permutations,
    right_pieri_successors,
    scale,
    sort_composition,
)
from .errors import (
    ImmaculateError,
    InvalidVectorError,
    PreconditionError,
    ResourceLimitError,
)
from .involution import CellRef, nefarious_cells, phi_r, theta_x, y_inverse, y_map
from .linear import LinComb
from .nsym import (
    H_to_immaculate,
    forgetful_chi,
    h_multiply,
    immaculate_comb_to_H,
    immaculate_to_H,
    product_in_S_oracle,
    structure_constant,
    sym_multiply,
)
from .pieri import (
    left_pieri,
    left_pieri_unit_coefficient,
    right_pieri,
    sgn,
    translation_reduce,
    z_membership,
)
from .schur import (
    h_to_schur,
    lr_coefficient_algebra,
    lr_coefficient_tableau,
    pieri_sym,
    saturation_check_nsym,
    saturation_check_sym,
    schur_to_h,
)
from .tableaux import (
    SkewTableau,
    content,
    count_immaculate_LR,
    enumerate_T_alpha_beta,
    enumerate_skew_immaculate,
    immaculate_LR_product,
    is_immaculate,
    is_semistandard,
    is_yamanouchi,
    reading_word,
    signed_product,
    signed_product_via_tableaux,
)

__version__ = "0.1.0"
