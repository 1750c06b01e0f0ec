"""Closed forms and the general lower bound for the hamiltonian chromatic number.

Python integers are arbitrary precision, so no overflow handling is
needed; the two divisions by (kn - 1) are asserted exact.
"""

from __future__ import annotations

import warnings

from .detour import DetourProfile, _check_profile
from .errors import InvalidSpecError, OutOfStatedRangeWarning
from .families import SymmetricSpec
from .graphs import BlockGraph, check_integer


def phi(r: int, x: int) -> int:
    """Geometric sum 1 + x + ... + x^(r-1); phi(0, x) == 0."""
    r, x = check_integer(r, "r"), check_integer(x, "x")
    if r < 0:
        raise InvalidSpecError(f"phi needs r >= 0, got {r}")
    if x < 1:
        raise InvalidSpecError(f"phi needs x >= 1, got {x}")
    return r if x == 1 else (x**r - 1) // (x - 1)


def lower_bound(g: BlockGraph, profile: DetourProfile) -> int:
    """(p-1)(p-omega) - 2*total_level + xi, floored at zero."""
    _check_profile(g, profile)
    value = (g.p - 1) * (g.p - profile.omega) - 2 * profile.total_level + profile.xi
    return max(0, value)


def _require_branching(spec: SymmetricSpec) -> None:
    if spec.k * spec.n < 2:
        raise InvalidSpecError(
            "this closed form needs k*n >= 2; paths (block size 2, cut degree 2) "
            "are covered by path_hc"
        )


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"expected exact division, got {num}/{den}")
    return q


def sym_order_count(spec: SymmetricSpec) -> int:
    """Number of vertices of the symmetric block graph for spec.

    The odd-diameter branch is (n+1)(1 + kn*phi_r(kn)), which matches the
    generator; the superficially simpler 1 + n + sum(k^i n^(i+1)) misses
    the factor distributing branches over all n+1 central vertices.
    """
    _require_branching(spec)
    n, k, r = spec.n, spec.k, spec.r
    ph = phi(r, k * n)
    if spec.diameter % 2 == 0:
        return 1 + (k + 1) * n * ph
    return (n + 1) * (1 + k * n * ph)


def sym_total_level(spec: SymmetricSpec) -> int:
    """Total detour level of the symmetric block graph for spec."""
    _require_branching(spec)
    n, k, r = spec.n, spec.k, spec.r
    x = k * n
    ph = phi(r, x)
    inner = r * ph + _exact_div(r - ph, x - 1)
    if spec.diameter % 2 == 0:
        return n * n * (k + 1) * inner
    return k * n * n * (n + 1) * inner


def sym_hc(spec: SymmetricSpec) -> int:
    """Hamiltonian chromatic number of the symmetric block graph for spec."""
    _require_branching(spec)
    if spec.diameter < 3:
        raise InvalidSpecError("diameter 2 is the one-point union; use union_hc")
    n, k, r = spec.n, spec.k, spec.r
    x = k * n
    ph = phi(r, x)
    tail = 2 * _exact_div(ph - r, x - 1)
    if spec.diameter % 2 == 0:
        return n * n * (k + 1) * (ph * ((k + 1) * ph - 2 * r) + tail) + n
    return k * n * n * (n + 1) * (ph * (k * (n + 1) * ph - 2 * r + 1) + tail)


def star_hc(n: int) -> int:
    """Hamiltonian chromatic number (n-1)^2 of the star with n leaves."""
    n = check_integer(n, "leaf count")
    if n < 1:
        raise InvalidSpecError(f"star needs >= 1 leaf, got {n}")
    if n < 3:
        warnings.warn(
            f"star value stated for n >= 3, got n={n}", OutOfStatedRangeWarning, stacklevel=2
        )
    return (n - 1) ** 2


def path_hc(order: int) -> int:
    """Hamiltonian chromatic number of the path on ``order`` vertices."""
    order = check_integer(order, "vertex count")
    if order < 2:
        raise InvalidSpecError(f"path needs >= 2 vertices, got {order}")
    if order < 5:
        warnings.warn(
            f"path value stated for order >= 5, got {order}", OutOfStatedRangeWarning, stacklevel=2
        )
    if order % 2:
        half = (order - 1) // 2
        return 2 * half * half - 2 * half + 2
    half = order // 2
    return 2 * half * half - 4 * half + 4


def union_hc(n: int, k: int) -> int:
    """Hamiltonian chromatic number of the one-point union of k copies of K_n."""
    n, k = check_integer(n, "block size"), check_integer(k, "copy count")
    if n < 2 or k < 1:
        raise InvalidSpecError(f"union needs n >= 2 and k >= 1, got ({n}, {k})")
    if k < 2:
        warnings.warn(
            f"union value stated for k >= 2, got k={k}", OutOfStatedRangeWarning, stacklevel=2
        )
    if k == 2:
        return (n - 1) ** 2
    return k * (k - 2) * (n - 1) ** 2 + n - 1
