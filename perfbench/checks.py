"""Correctness checks on the files one `pefkit erase` run leaves behind.

Every check reads only the output files (`report.json`, `function.json`,
`erased.csv`) and the input samples, so it holds however the program
computes them; no check compares bytes, because the random stream of
`apply` may change. Each check is one counted operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Analytic leakage I(Z;A) above this fails; the paper's guarantee is exactly 0.
I_ZA_TOL = 1e-12
#: Tolerance on I(Z;X) = H(X|A) + J(Q).
IDENTITY_TOL = 1e-9
#: Failure probability of the per-group sampling bound on TV(z-empirical, Q).
SAMPLING_DELTA = 1e-9


def read_pairs(path: Path) -> np.ndarray:
    """Two-column integer CSV with one header line, as an (n, 2) int64 array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def sampling_bound(k: int, n: int, delta: float = SAMPLING_DELTA) -> float:
    """Bound on TV between Q and the empirical law of n independent draws
    whose average law is Q, holding with probability at least 1 - delta.

    E[TV] <= 1/2 sum_z sqrt(Q(z)/n) <= 1/2 sqrt(k/n) by Cauchy-Schwarz, and
    TV moves by at most 1/n per draw, so McDiarmid adds sqrt(ln(1/delta)/(2n)).
    """
    return 0.5 * math.sqrt(k / n) + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _leakage(report: dict) -> tuple[bool, str]:
    i_za = report["i_za_analytic"]
    return abs(i_za) <= I_ZA_TOL, f"branch={report['branch']} i_za_analytic={i_za!r}"


def _utility_identity(report: dict) -> tuple[bool, str]:
    i_zx, h, j = report["i_zx_analytic"], report["h_x_given_a"], report["j_value"]
    ok = abs(i_zx - (h + j)) <= IDENTITY_TOL and j <= I_ZA_TOL
    if report["branch"] == "equal":
        ok = ok and j == 0.0
    return ok, f"i_zx={i_zx!r} h_x_given_a={h!r} j={j!r}"


def _rows(samples: np.ndarray, erased: np.ndarray, function: dict) -> tuple[bool, str]:
    if erased.shape != samples.shape:
        return False, f"erased shape {erased.shape} != samples shape {samples.shape}"
    if not np.array_equal(erased[:, 1], samples[:, 1]):
        return False, "concept column differs from samples.csv"
    outside = np.setdiff1d(erased[:, 0], np.asarray(function["output_support"]))
    if outside.size:
        return False, f"{outside.size} z values outside output_support, e.g. {outside[:3]}"
    return True, f"{len(erased)} rows"


def _pushforward(erased: np.ndarray, function: dict) -> tuple[bool, str]:
    # Q's support is stored in ascending symbol order.
    q_support = np.asarray(function["q"]["support"], dtype=np.int64)
    q_probs = np.asarray(function["q"]["probs"], dtype=np.float64)
    worst = []
    for concept in np.unique(erased[:, 1]):
        z = erased[erased[:, 1] == concept, 0]
        pos = np.searchsorted(q_support, z)
        inside = q_support[np.minimum(pos, q_support.size - 1)] == z
        emp = np.bincount(pos[inside], minlength=q_support.size) / z.size
        tv = 0.5 * (np.abs(emp - q_probs).sum() + np.count_nonzero(~inside) / z.size)
        bound = sampling_bound(q_support.size, z.size)
        worst.append((tv - bound, int(concept), tv, bound))
    excess, concept, tv, bound = max(worst)
    return excess <= 0.0, f"worst group {concept}: tv={tv:.4g} bound={bound:.4g}"


def check_erase_outputs(samples: np.ndarray, erase_dir: Path) -> list[tuple[str, bool, str]]:
    """Run every check on one erase output directory.

    Returns (check name, passed, detail) per check. A check whose files are
    missing or unreadable fails with the error as its detail.
    """
    loaded: dict = {}

    def load(name):
        if name not in loaded:
            path = erase_dir / name
            loaded[name] = read_pairs(path) if name.endswith(".csv") else json.loads(path.read_text())
        return loaded[name]

    checks = (
        ("leakage", lambda: _leakage(load("report.json"))),
        ("utility_identity", lambda: _utility_identity(load("report.json"))),
        ("rows", lambda: _rows(samples, load("erased.csv"), load("function.json"))),
        ("pushforward", lambda: _pushforward(load("erased.csv"), load("function.json"))),
    )
    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except (OSError, ValueError, KeyError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
