"""The checked identities of ymflow, one gap function each, and the table
of them that `ymflow verify` prints.

A gap function measures its identity's gap on the data it is given and
asserts nothing; the tests call it on their own data at their own
tolerances.  `SUITES` holds one row per identity (name, gap on fixed
seeded data, tolerance): a cheap shadow of the test suite that certifies
an installation (or catches a miscompiled numpy) in seconds.
"""

from __future__ import annotations

import dataclasses
import time
import traceback

import numpy as np

from .ensemble import EnsembleSpec, run_ensemble
from .fields import (
    SpectralConnection,
    _spectral_to_values,
    _values_to_spectral,
    l2_norm,
    ym_action,
    ym_rhs,
    zdds_rhs,
    zero_connection,
)
from .flow import FlowConfig, heat_semigroup_u1, integrate
from .gff import SamplerConfig, sample_gff, sample_initial, sample_u1_coulomb
from .groups import SU2, U1, bracket, standard_basis
from .wilson import WILSON_STEPS, Character, h_series, rectangle_loop, wilson_loop

__all__ = ["SUITES", "gradient_ratio", "jacobi_gap", "parseval_gap", "random_connection",
           "round_trip_gap", "run_suites", "sampler_gap", "smooth_su2", "thread_gap",
           "u1_flow_gap", "u1_wilson_gap", "ym_zdds_action_gap", "ym_zdds_wilson_gap",
           "zdds_path_gap"]


def random_connection(group, cutoff, seed, scale=1.0) -> SpectralConnection:
    """Reality-symmetric random coefficients, O(scale) entries."""
    rng = np.random.default_rng(seed)
    k = 2 * cutoff + 1
    shape = (group.algebra_dim, 3, k, k, k)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = 0.5 * (c + np.conj(c[:, :, ::-1, ::-1, ::-1]))
    return SpectralConnection(group, cutoff, c * scale)


def round_trip_gap(a, m) -> float:
    """Largest coefficient error of a taken to the m^3 grid and back."""
    back = _values_to_spectral(_spectral_to_values(a.coeffs, a.cutoff, m), a.cutoff, m)
    return float(np.max(np.abs(back - a.coeffs[..., a.cutoff:])))


def parseval_gap(a, m) -> float:
    """|L^2 norm of a on the m^3 grid - l2_norm(a)| / (1 + the grid norm)."""
    g = _spectral_to_values(a.coeffs, a.cutoff, m)
    grid_l2 = float(np.sqrt(np.mean(np.sum(g**2, axis=(0, 1)))))
    return abs(grid_l2 - l2_norm(a)) / (1 + grid_l2)


def u1_flow_gap(a0, state, t) -> float:
    """Relative L^2 distance of a U(1) state at flow time t from the heat
    semigroup applied to a0 (criterion 1)."""
    exact = heat_semigroup_u1(a0, t)
    diff = SpectralConnection(U1, a0.cutoff, state.coeffs - exact.coeffs)
    return l2_norm(diff) / l2_norm(exact)


def u1_wilson_gap(a0, state, t, loop, characters, steps=WILSON_STEPS) -> float:
    """Largest |holonomy-ODE Wilson value of state - exact U(1) value of a0
    flowed to t| over a sequence of characters (criterion 2)."""
    phase = h_series(a0, loop, t)
    values = wilson_loop(state, loop, characters, steps)
    return float(np.max([abs(w - ch.u1_value(phase)) for w, ch in zip(values, characters)]))


def zdds_path_gap(a) -> float:
    """max |operator - componentwise ZDDS right-hand side| over max
    |operator one| (criterion 8)."""
    r_op = zdds_rhs(a, path="operator").coeffs
    r_ex = zdds_rhs(a, path="explicit").coeffs
    return float(np.max(np.abs(r_op - r_ex)) / np.max(np.abs(r_op)))


def ym_zdds_action_gap(ym, zdds, t) -> float:
    """|S_YM of a YM run - of a ZDDS run| / the first, at t: the flows
    differ by a gauge direction, which S_YM does not see."""
    return abs(ym.actions[t] - zdds.actions[t]) / ym.actions[t]


def ym_zdds_wilson_gap(ym, zdds, t, loop, character) -> float:
    """|Wilson value of a YM run - of a ZDDS run| at t, gauge invariant too."""
    return abs(wilson_loop(ym.states[t], loop, character)
               - wilson_loop(zdds.states[t], loop, character))


def gradient_ratio(a, b, eps=3e-6) -> float:
    """Central difference of S_YM at a along b over <ym_rhs(a), b>: the one
    constant, -4, linking the action's gradient to the flow (criterion 7)."""
    plus, minus = (ym_action(SpectralConnection(a.group, a.cutoff, c))
                   for c in (a.coeffs + eps * b.coeffs, a.coeffs - eps * b.coeffs))
    pairing = float(np.sum(np.real(np.conj(ym_rhs(a).coeffs) * b.coeffs)))
    return (plus - minus) / (2 * eps) / pairing


def jacobi_gap(x, y, z) -> float:
    """Largest entry of [x,[y,z]] + [y,[z,x]] + [z,[x,y]], over stacks too."""
    total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + \
        bracket(z, bracket(x, y))
    return float(np.max(np.abs(total)))


def sampler_gap(sample, config, big_cutoff) -> float:
    """Largest coefficient change between two draws sample(config), and
    between one and the draw at big_cutoff restricted to config's cutoff:
    0 when the sampler is deterministic and couples cutoffs."""
    a, again = sample(config), sample(config)
    big = sample(dataclasses.replace(config, cutoff=big_cutoff))
    return float(np.max(np.abs([again.coeffs - a.coeffs,
                                big.restricted(config.cutoff).coeffs - a.coeffs])))


def thread_gap(spec, threads) -> float:
    """Records that change between one worker and `threads` workers: 0 when
    the worker count changes no result."""
    one, many = (run_ensemble(spec, threads=k)[0] for k in (1, threads))
    return float(abs(len(one) - len(many)) + sum(x != y for x, y in zip(one, many)))


# verify's own data: seeded draws, a plaquette, and flow time T
T = 0.02
PLAQ = rectangle_loop((0.1, 0.2, 0.3), 0, 1, 0.25, 0.25, name="p")


def _u1_flowed(kind):
    """A U(1) Coulomb draw at cutoff 3 and its state at T under kind."""
    a = sample_u1_coulomb(SamplerConfig(U1, 3, seed=13))
    return a, integrate(a, FlowConfig(kind), (T,)).states[T]


def smooth_su2(cutoff) -> SpectralConnection:
    """Smooth SU(2) data: a cutoff-1 GFF draw at H^1 = 5, zero-padded."""
    a, low = zero_connection(SU2, cutoff), slice(cutoff - 1, cutoff + 2)
    a.coeffs[:, :, low, low, low] = sample_initial(SU2, "gff", 1, 1, scale_to_h1=5.0).coeffs
    return a


def _smooth_runs():
    """YM and ZDDS runs of smooth_su2(2) to T."""
    return [integrate(smooth_su2(2), FlowConfig(kind), (T,)) for kind in ("ym", "zdds")]


U1_ENSEMBLE = EnsembleSpec(group=U1, sampler_kind="u1_coulomb", seed=71, cutoffs=(2, 3),
                           times=(T,), n_samples=6, flow=FlowConfig("u1_exact"),
                           loops=(PLAQ,), characters=(Character(U1, "u1_power", 1),))

SUITES = [
    ("round-trip", lambda: round_trip_gap(random_connection(SU2, 3, 7), 14), 1e-12),
    ("parseval", lambda: parseval_gap(random_connection(SU2, 3, 7), 14), 1e-12),
    ("u1-flow", lambda: u1_flow_gap(*_u1_flowed("ym"), T), 1e-8),
    ("u1-wilson", lambda: u1_wilson_gap(*_u1_flowed("u1_exact"), T, PLAQ,
                                        (Character(U1, "u1_power", 1),), 192), 1e-8),
    ("zdds-dual-path", lambda: np.max([zdds_path_gap(random_connection(SU2, 2, seed, scale=0.4))
                                       for seed in (31, 32, 33)]), 1e-10),
    ("ym-zdds-action", lambda: ym_zdds_action_gap(*_smooth_runs(), T), 5e-6),
    ("ym-zdds-wilson", lambda: ym_zdds_wilson_gap(*_smooth_runs(), T, PLAQ,
                                                  Character(SU2, "fundamental")), 2e-6),
    ("gradient-ratio", lambda: abs(4.0 + gradient_ratio(
        *(random_connection(SU2, 2, seed, scale=0.3) for seed in (41, 42)))), 1e-6),
    ("jacobi", lambda: jacobi_gap(*np.einsum(  # 20 triples in su(2), as 3 stacks
        "kta,aij->tkij", np.random.default_rng(101).normal(size=(20, 3, 3)),
        standard_basis(SU2))), 1e-12),
    ("sampling", lambda: sampler_gap(
        sample_gff, SamplerConfig(SU2, 2, seed=55, stream=3), 4), 0.0),
    ("threads", lambda: thread_gap(U1_ENSEMBLE, 2), 0.0),
]


def run_suites(out=print) -> bool:
    """Measure every row; print its name, PASS or FAIL, gap, tolerance and
    seconds; True iff every gap is within its tolerance.  A NaN gap fails,
    and so does a row that raises, with the exception named (its traceback
    goes to stderr); the other rows still run."""
    all_ok = True
    for name, gap_fn, tol in SUITES:
        start = time.perf_counter()
        try:
            gap, note = float(gap_fn()), ""
        except Exception as exc:
            traceback.print_exc()
            gap, note = float("nan"), f"  {type(exc).__name__}: {exc}"
        ok = gap <= tol
        all_ok &= ok
        out(f"{name:<15} {'PASS' if ok else 'FAIL'} {gap:9.2e} {tol:7.0e} "
            f"{time.perf_counter() - start:7.3f}s{note}")
    return all_ok
