"""Seeded inputs and output checks for the three benchmark workloads.

A workload turns (seed, batch index) into input files plus a list of
``ridgelaw.cli.run_command`` argument vectors, and checks each command's
artifacts afterwards. Checks never trust the program's arithmetic: exact
results are re-verified in integer arithmetic, floating-point results
against invariants and stated tolerances, never against bit patterns.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np


class CheckError(Exception):
    """An artifact is missing, malformed, or fails an output check."""


@dataclass
class Command:
    """One CLI invocation, its artifact directory, and what the generator knows."""

    argv: List[str]
    out: Path
    expect: Dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through SHA-512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _sig6(x: float) -> float:
    """Round to 6 significant digits, so input files do not depend on libm's last bit."""
    return float(f"{x:.6e}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# artifact readers


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: unreadable ({exc})") from None


def _read_csv(path: Path, header: Sequence[str] = None) -> List[List[str]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: unreadable ({exc})") from None
    rows = [line.split(",") for line in lines]
    if not rows or (header is not None and rows[0] != list(header)):
        raise CheckError(f"{path.name}: unexpected header {rows[:1]}")
    return rows[1:]


def _floats(values, what: str) -> List[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise CheckError(f"{what}: non-numeric entry in {values!r}") from None


def _check_spectrum(eigs: Sequence[float], m: int) -> None:
    """Eigenvalues of a PSD matrix: m of them, finite, descending, non-negative."""
    if len(eigs) != m:
        raise CheckError(f"expected {m} eigenvalues, got {len(eigs)}")
    if not all(math.isfinite(v) and v >= 0.0 for v in eigs):
        raise CheckError(f"eigenvalues must be finite and >= 0: {eigs}")
    if any(a < b for a, b in zip(eigs, eigs[1:])):
        raise CheckError(f"eigenvalues not descending: {eigs}")


def _check_run_json(out: Path, command: str, **config) -> None:
    run = _load_json(out / "run.json")
    if run.get("command") != command:
        raise CheckError(f"run.json: command {run.get('command')!r}, expected {command!r}")
    for key, value in config.items():
        if run.get("config", {}).get(key) != value:
            raise CheckError(f"run.json: config[{key!r}] = {run.get('config', {}).get(key)!r}")


# ---------------------------------------------------------------------------
# reproduce-turbulent: the paper's experiment at quadrature order 15

REPRO_ORDER = 15
# Top-3 eigenvalues of the order-15 turbulent estimate at h = 1e-5, as the
# seed commit computes them. The tolerance admits summation-order changes
# (about 1e-11 relative on the third eigenvalue) and flags any change to the
# estimator's arithmetic beyond that.
REPRO_TOP3 = (148565.58652780074, 312.30594081747086, 2.0436337785054306)
REPRO_EIG_RTOL = 1e-6
# The smallest sweep step is drawn in [1e-6, 10**-5.6]. On the order-15 grid
# no forward-difference stencil straddles the regime switch for h <= 2.5e-6
# (the first two straddle at h = 4e-6), so r2 there is rounding noise
# (4.2e-13 at h = 1e-6) and is bounded absolutely. At larger steps
# straddling stencils make r2 a real O(1) quantity; it is only range-checked.
REPRO_SMALL_H_R2_MAX = 1e-8
REPRO_R2_MAX = 3.0  # three candidate columns, each residual at most 1


def sweep_steps(rng: random.Random) -> List[str]:
    """Five descending steps, one log-uniform draw within 0.4 decade of each of 1e-2..1e-6."""
    steps = []
    for k in range(5):
        centre = -2.0 - k
        lo, hi = max(centre - 0.4, -6.0), min(centre + 0.4, -2.0)
        steps.append(f"{10.0 ** rng.uniform(lo, hi):.6e}")
    return steps


class ReproduceTurbulent:
    """``pipeflow reproduce --regime turbulent --quad-order 15``, one command per batch."""

    name = "reproduce-turbulent"

    def __init__(self, batch_size: int = 1):
        self.batch_size = batch_size

    def commands(self, seed: int, index: int, workdir: Path) -> List[Command]:
        rng = _rng(self.name, seed, index)
        cmds = []
        for i in range(self.batch_size):
            steps = sweep_steps(rng)
            out = workdir / f"out{i:04d}"
            argv = [
                "pipeflow", "reproduce", "--regime", "turbulent",
                "--quad-order", str(REPRO_ORDER), "--steps", ",".join(steps), "--out", str(out),
            ]
            cmds.append(Command(argv, out, {"steps": steps}))
        return cmds

    def grid_points(self, cmd: Command) -> int:
        """len(grid) summed over estimates: the active estimate plus one per sweep step."""
        return REPRO_ORDER ** 5 * (1 + len(cmd.expect["steps"]))

    def check(self, cmd: Command) -> Dict:
        out = cmd.out
        rows = _read_csv(out / "eigenvalues.csv", ["index", "eigenvalue"])
        eigs = _floats([r[-1] for r in rows], "eigenvalues.csv")
        _check_spectrum(eigs, 5)
        for got, ref in zip(eigs, REPRO_TOP3):
            if abs(got - ref) > REPRO_EIG_RTOL * ref:
                raise CheckError(f"eigenvalue {got!r} differs from {ref!r} beyond rtol {REPRO_EIG_RTOL}")
        doc = _load_json(out / "reproduce.json")
        if _floats(doc.get("eigenvalues", []), "reproduce.json") != eigs:
            raise CheckError("reproduce.json eigenvalues differ from eigenvalues.csv")
        sweep = doc.get("sweep", [])
        hs = _floats([e[0] for e in sweep], "sweep h")
        r2 = _floats([e[1] for e in sweep], "sweep r2")
        if hs != [float(h) for h in cmd.expect["steps"]]:
            raise CheckError(f"sweep steps {hs} differ from the requested {cmd.expect['steps']}")
        if not all(math.isfinite(v) and 0.0 <= v <= REPRO_R2_MAX for v in r2):
            raise CheckError(f"sweep r2 out of [0, {REPRO_R2_MAX}]: {r2}")
        if r2[-1] > REPRO_SMALL_H_R2_MAX:
            raise CheckError(f"r2 at h = {hs[-1]} is {r2[-1]}, above {REPRO_SMALL_H_R2_MAX}")
        csv_rows = _read_csv(out / "sweep.csv", ["h", "r2", "slope_so_far"])
        if [r[:2] for r in csv_rows] != [list(e) for e in sweep]:
            raise CheckError("sweep.csv differs from reproduce.json")
        _check_run_json(out, "pipeflow reproduce", regime="turbulent", quad_order=REPRO_ORDER)
        return {"top3": eigs[:3], "sweep_r2": r2}


# ---------------------------------------------------------------------------
# active-boxes: many small estimation problems on random pipe sub-boxes

ACTIVE_ORDER = 5
# name, dimension, envelope: the union of the laminar and turbulent boxes
PIPE_QUANTITIES = (
    ("rho", {"kg": 1, "m": -3}, (1.0e-1, 1.4e-1)),
    ("mu", {"kg": 1, "m": -1, "s": -1}, (1.0e-6, 1.0e-5)),
    ("D", {"m": 1}, (1.0e-1, 1.0e0)),
    ("eps", {"m": 1}, (1.0e-3, 1.0e-1)),
    ("dPdL", {"kg": 1, "m": -2, "s": -2}, (1.0e-9, 1.0e1)),
)
PIPE_QOI = {"m": 1, "s": -1}
MIN_BOX_DECADES = 0.1
# Boxes whose top-k eigenvectors leave span(A) by more than this are
# counted as inclusion misses. Contained boxes sit many decades below it;
# the misses (stencils straddling the regime switch) sit near 1.
INCLUSION_MISS_R2 = 1e-4
ORTHO_TOL = 1e-10


def _pipe_enclosing_basis() -> np.ndarray:
    """Orthonormal basis of {x : D x is parallel to v(V)}, the span of A = [w | W]."""
    units = ("kg", "m", "s")
    D = np.array([[dim.get(u, 0) for _, dim, _ in PIPE_QUANTITIES] for u in units], float)
    v = np.array([PIPE_QOI.get(u, 0) for u in units], float)
    perp = np.linalg.svd(v[None, :])[2][1:]  # rows spanning v's orthogonal complement
    _, s, vt = np.linalg.svd(perp @ D)
    return vt[int(np.sum(s > 1e-12)):].T


PIPE_ENCLOSING = _pipe_enclosing_basis()


def eigengap_dim(eigs: Sequence[float]) -> int:
    """k in 1..3 at the largest ratio lambda_k / lambda_{k+1}."""
    floor = eigs[0] * 1e-30
    return max(range(1, 4), key=lambda k: eigs[k - 1] / max(eigs[k], floor))


class ActiveBoxes:
    """``active --model <box.json> --quad-order 5`` over random pipe sub-boxes."""

    name = "active-boxes"

    def __init__(self, batch_size: int = 100):
        self.batch_size = batch_size

    def commands(self, seed: int, index: int, workdir: Path) -> List[Command]:
        rng = _rng(self.name, seed, index)
        cmds = []
        for i in range(self.batch_size):
            quantities = []
            for qname, dim, (lo, hi) in PIPE_QUANTITIES:
                a, b = math.log10(lo), math.log10(hi)
                width = rng.uniform(MIN_BOX_DECADES, b - a)
                start = rng.uniform(a, b - width)
                rng_box = [_sig6(10.0 ** start), _sig6(10.0 ** (start + width))]
                quantities.append({"name": qname, "dimension": dim, "range": rng_box})
            doc = {
                "unit_system": ["kg", "m", "s"],
                "quantities": quantities,
                "qoi": {"name": "V", "dimension": PIPE_QOI},
                "builtin": "pipeflow_turbulent",
            }
            path = workdir / f"box{i:04d}.json"
            _write_json(path, doc)
            out = workdir / f"out{i:04d}"
            argv = ["active", "--model", str(path), "--quad-order", str(ACTIVE_ORDER), "--out", str(out)]
            cmds.append(Command(argv, out, {"model": str(path)}))
        return cmds

    def grid_points(self, cmd: Command) -> int:
        return ACTIVE_ORDER ** 5

    def check(self, cmd: Command) -> Dict:
        out = cmd.out
        doc = _load_json(out / "active.json")
        if doc.get("point_count") != ACTIVE_ORDER ** 5 or doc.get("quad_order") != ACTIVE_ORDER:
            raise CheckError(f"active.json: point_count {doc.get('point_count')!r}")
        eigs = _floats(doc.get("eigenvalues", []), "active.json")
        _check_spectrum(eigs, 5)
        rows = _read_csv(out / "eigenvalues.csv", ["index", "eigenvalue"])
        if _floats([r[-1] for r in rows], "eigenvalues.csv") != eigs:
            raise CheckError("eigenvalues.csv differs from active.json")
        rows = _read_csv(out / "eigenvectors.csv", ["component"] + [f"u_{j + 1}" for j in range(5)])
        if len(rows) != 5 or any(len(r) != 6 for r in rows):
            raise CheckError("eigenvectors.csv: expected a 5 x 5 matrix")
        U = np.array([_floats(r[1:], "eigenvectors.csv") for r in rows])
        if not np.all(np.isfinite(U)) or np.max(np.abs(U.T @ U - np.eye(5))) > ORTHO_TOL:
            raise CheckError("eigenvectors are not orthonormal")
        if eigs[0] <= 0.0:
            raise CheckError("zero spectrum: the model cannot be constant on a box")
        k = eigengap_dim(eigs)
        Uk = U[:, :k]
        residual = Uk - PIPE_ENCLOSING @ (PIPE_ENCLOSING.T @ Uk)
        _check_run_json(out, "active", model=cmd.expect["model"], quad_order=ACTIVE_ORDER)
        return {"k": k, "inclusion_r2": float(np.sum(residual * residual)), "lambda1": eigs[0]}


# ---------------------------------------------------------------------------
# pi-wide: exact decompositions of wide random dimension matrices

PI_UNITS = ("kg", "m", "s", "A", "K", "mol", "cd")
PI_QUANTITIES = 30
_PRIME = (1 << 61) - 1


def _random_exponent(rng: random.Random) -> Fraction:
    """Zero with probability 1/2, else p/q with q in {1, 2, 3} and |p/q| <= 4."""
    if rng.random() < 0.5:
        return Fraction(0)
    q = rng.choice((1, 2, 3))
    p = rng.choice([i for i in range(-4 * q, 4 * q + 1) if i])
    return Fraction(p, q)


def _render(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scaled_ints(vec: Sequence[Fraction]) -> List[int]:
    """vec times the LCM of its denominators: integers with the same span."""
    lcm = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (lcm // x.denominator) for x in vec]


def _rank_fractions(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_rank(rows: List[List[int]]) -> int:
    """Exact rank of an integer matrix.

    Elimination modulo a large prime gives a lower bound on the rational
    rank; when that bound is already full it is exact, otherwise the rank
    is recomputed over the rationals.
    """
    work = [[v % _PRIME for v in r] for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, _PRIME)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv % _PRIME
            if f:
                work[i] = [(a - f * b) % _PRIME for a, b in zip(work[i], work[rank])]
        rank += 1
    if rank == min(len(rows), ncols):
        return rank
    return _rank_fractions([[Fraction(v) for v in r] for r in rows])


class PiWide:
    """``pi <model.json>`` over random 30-quantity models in the 7 SI units."""

    name = "pi-wide"

    def __init__(self, batch_size: int = 10):
        self.batch_size = batch_size

    def _model(self, rng: random.Random):
        while True:
            D = [[_random_exponent(rng) for _ in range(PI_QUANTITIES)] for _ in PI_UNITS]
            qoi = [_random_exponent(rng) for _ in PI_UNITS]
            if exact_rank([_scaled_ints(row) for row in D]) == len(PI_UNITS):
                return D, qoi

    def commands(self, seed: int, index: int, workdir: Path) -> List[Command]:
        rng = _rng(self.name, seed, index)
        cmds = []
        for i in range(self.batch_size):
            D, qoi = self._model(rng)
            names = [f"q{j + 1:02d}" for j in range(PI_QUANTITIES)]
            doc = {
                "unit_system": list(PI_UNITS),
                "quantities": [
                    {"name": name, "dimension": {u: _render(D[r][j]) for r, u in enumerate(PI_UNITS) if D[r][j]}}
                    for j, name in enumerate(names)
                ],
                "qoi": {"name": "y", "dimension": {u: _render(x) for u, x in zip(PI_UNITS, qoi) if x}},
            }
            path = workdir / f"model{i:04d}.json"
            _write_json(path, doc)
            out = workdir / f"out{i:04d}"
            cmds.append(Command(["pi", str(path), "--out", str(out)], out, {"D": D, "qoi": qoi, "names": names}))
        return cmds

    def grid_points(self, cmd: Command) -> int:
        return 0

    def check(self, cmd: Command) -> Dict:
        out, D, qoi = cmd.out, cmd.expect["D"], cmd.expect["qoi"]
        m = PI_QUANTITIES
        doc = _load_json(out / "pi.json")
        try:
            got_D = [[Fraction(x) for x in row] for row in doc["D"]]
            w = [Fraction(x) for x in doc["w"]]
            W = [[Fraction(x) for x in row] for row in doc["W"]]
            rank, n = doc["rank"], doc["n_pi_groups"]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CheckError(f"pi.json: malformed ({exc!r})") from None
        if got_D != D or doc.get("quantities") != cmd.expect["names"]:
            raise CheckError("pi.json: dimension matrix differs from the model file")
        D_ints = [_scaled_ints(row) for row in D]
        if rank != exact_rank(D_ints) or n != m - rank:
            raise CheckError(f"pi.json: rank {rank} / n {n} disagree with the exact rank")
        if len(w) != m or len(W) != m or any(len(row) != n for row in W):
            raise CheckError("pi.json: w or W has the wrong shape")
        W_cols = [[W[i][j] for i in range(m)] for j in range(n)]
        # D.W = 0 and D.w = v(qoi) in integers: each row of D and each column
        # of [w | W] is scaled by the LCM of its denominators
        row_scales = [math.lcm(*(x.denominator for x in row)) for row in D]
        for col in W_cols:
            col_ints = _scaled_ints(col)
            if any(sum(a * b for a, b in zip(row, col_ints)) for row in D_ints):
                raise CheckError("D . W != 0")
        if not any(qoi):
            if any(w) or doc.get("A") != doc["W"]:
                raise CheckError("dimensionless qoi: w must be zero and A = W")
            columns = W_cols
        else:
            w_ints, w_scale = _scaled_ints(w), math.lcm(*(x.denominator for x in w))
            for row, scale, target in zip(D_ints, row_scales, qoi):
                if Fraction(sum(a * b for a, b in zip(row, w_ints)), scale * w_scale) != target:
                    raise CheckError("D . w != v(qoi)")
            if doc.get("A") != [[a] + b for a, b in zip(doc["w"], doc["W"])]:
                raise CheckError("pi.json: A is not [w | W]")
            columns = [w] + W_cols
        if exact_rank([list(r) for r in zip(*(_scaled_ints(c) for c in columns))]) != len(columns):
            raise CheckError("[w | W] is not of full column rank")
        pi_labels = [f"pi_{j + 1}" for j in range(n)]
        if _read_csv(out / "W.csv", [""] + pi_labels) != [[q] + r for q, r in zip(cmd.expect["names"], doc["W"])]:
            raise CheckError("W.csv differs from pi.json")
        if _read_csv(out / "w.csv", ["quantity", "exponent"]) != [[q, x] for q, x in zip(cmd.expect["names"], doc["w"])]:
            raise CheckError("w.csv differs from pi.json")
        _check_run_json(out, "pi", model=cmd.argv[1])
        return {"rank": rank, "n": n, "w": doc["w"], "W": doc["W"]}


WORKLOADS = {cls.name: cls for cls in (ReproduceTurbulent, ActiveBoxes, PiWide)}
