"""octocf: exact octagon continued fractions and diagonal-changes renormalization.

The package machine-verifies that the additive continued fraction on the
regular-octagon translation surface is an acceleration of the diagonal
changes algorithm: each of the seven Farey sectors corresponds to a fixed
word of staircase moves whose 6x6 matrix and exact renormalization closure
are checked over Q(sqrt(2)).

Modules
-------
numerics
    Exact Q(sqrt2) arithmetic, vectors, 2x2 matrices, directions, side of a ray.
classical
    Torus baseline: Gauss map and geometric continued fraction convergents.
farey
    Octagon Farey map, expansions, inverse-branch reconstruction.
diagch
    Labeled quadrangulations and staircase moves for any k, on numerics and intmat.
h2moves
    The two-node reduced move system and its seven sector matrices.
octagon
    Frozen base quadrangulations, the acceleration verifier, expansion traces.
saddle
    The exact saddle-connection test through the Farey walk; no command loads it.
render
    Deterministic SVG rendering.
jsonout
    Indented JSON text as ``json.dumps(obj, indent=2)`` writes it, without ``json``.
cli
    The ``octocf`` command-line tool.
"""

__version__ = "0.1.0"
