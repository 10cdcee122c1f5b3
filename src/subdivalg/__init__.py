"""Exact computation in the deformed subdivision algebra.

The quotient of Q[b,a][x[i,j] : 1 <= i < j <= n] by the relations

    x[i,j]*x[j,k] = x[i,k]*(x[i,j] + x[j,k] + b) + a      (i < j < k)

supports two reduction notions: the non-confluent pathless game
(`rewrite`) and the confluent forkless normal form (`groebner`).  The
`series` module realizes the algebra maps that explain why every finished
game shares one image under the row substitution t[i] <- x[i,j], and
`algebra` covers the symmetric presentation and the forkless basis counts.

Import each name from its module: the package root exports only
`__version__`.
"""

__version__ = "0.1.0"
