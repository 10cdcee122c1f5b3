"""Exact computation in the deformed subdivision algebra.

The quotient of Q[b,a][x[i,j] : 1 <= i < j <= n] by the relations

    x[i,j]*x[j,k] = x[i,k]*(x[i,j] + x[j,k] + b) + a      (i < j < k)

supports two reduction notions: the non-confluent pathless game
(`rewrite`) and the confluent forkless normal form (`groebner`).  The
`series` module realizes the algebra maps that explain why every finished
game shares one image under the row substitution t[i] <- x[i,j], and
`algebra` covers the symmetric presentation and the forkless basis counts.
"""

from .ring import ALPHA, BETA, Coeff
from .poly import (
    PolyParseError,
    TPoly,
    XPoly,
    all_monomials,
    d_image,
    format_monomial,
    is_forkless,
    is_pathless,
    parse_monomial,
    parse_poly,
    parse_tpoly,
    weight_pathless,
)
from .rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    RewriteError,
    ScriptStrategy,
    find_path_triples,
    format_trace,
    parse_script,
    pathless_step,
    random_xpoly,
    reduce_pathless,
    verify_t_unique,
)
from .groebner import (
    GroebnerBasis,
    buchberger_check,
    generate_basis,
    ideal_generator,
    ideal_member,
    normal_form,
    reduce_step,
)
from .series import (
    QPoly,
    QRatFrac,
    QTruncSeries,
    TWSeries,
    a_image_rat,
    a_s_expand,
    b_map,
    e_image,
    ed_ba_sweep,
    verify_a_kills_j,
    verify_e_left_inverse,
    verify_ed_eq_ba,
)
from .algebra import (
    CountTable,
    apply_perm,
    count_forkless,
    enumerate_forkless,
    gf_coeffs,
    j_generator,
    verify_symmetry,
    x_general,
)

__version__ = "0.1.0"
