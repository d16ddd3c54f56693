"""Shared helpers and test-only oracles for the test suite."""

from probe_kit.instances import gen_random
from probe_kit.objectives import multilinear_exact
from probe_kit.seeding import spawn_rng


def random_instance(seed, n=None, k_in=None, k_out=None, objective="linear"):
    """Seeded oracle-checkable instance with bounded constraint counts."""
    rng = spawn_rng(seed, "test-instance")
    if n is None:
        n = rng.randint(4, 8)
    if k_in is None:
        k_in = rng.randint(0, 2)
    if k_out is None:
        k_out = rng.randint(1, 2)
    return gen_random(n, k_in, k_out, objective, rng)


def partial_derivative(f, y, e):
    """dF/dy_e at y, exact: F(y with y_e=1) - F(y with y_e=0)."""
    if not 0 <= e < f.n:
        raise ValueError("element outside ground set")
    hi = list(y)
    lo = list(y)
    hi[e], lo[e] = 1.0, 0.0
    return multilinear_exact(f, hi).value - multilinear_exact(f, lo).value
