"""Command-line front end: model files, experiments, CSV/JSON artifacts.

Model files (schema and loader in ``ridgelaw.models``) are JSON: a unit
system, quantities with rational unit exponents and optional positive ranges,
a quantity of interest, and optionally the id of a built-in model function.
Every run with an --out directory also writes a run.json capturing the full
resolved configuration, and identical invocations produce byte-identical
artifacts.

Exit codes: 0 success, 2 usage error, 3 model/schema error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .activesubspace import estimate_subspace
from .errors import ModelError, NumericalError
from .models import load_model
from .pigroups import PiDecomposition, build_dimension_matrix, pi_decomposition
from .quadrature import DEFAULT_CHUNK
from .subspace import convergence_sweep, fit_loglog_slope, inclusion_residual
from . import pipeflow

DEFAULT_QUAD_ORDER = 11
DEFAULT_FD_STEP = 1e-5
DEFAULT_SWEEP_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def fmt_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


def fmt_rational(x: Fraction) -> str:
    return str(x)  # Fraction renders as "p" or "p/q"


# ---------------------------------------------------------------------------
# artifact writers


def _write_text(out_dir: Path, filename: str, text: str) -> Path:
    target = out_dir / filename
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        # an unusable --out is a usage error
        raise ValueError(f"cannot write {str(target)!r}: {exc.strerror or exc}") from None
    return target


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_json(payload, out: Optional[str], filename: str) -> None:
    """Print the payload as JSON; with --out, write the same text to out/filename."""
    text = _json_text(payload)
    print(text, end="")
    if out is not None:
        _write_text(Path(out), filename, text)


def _write_run_json(out_dir: Optional[Path], command: str, config: dict):
    if out_dir is None:
        return
    payload = {"command": command, "package": "ridgelaw", "version": __version__, "config": config}
    _write_text(out_dir, "run.json", _json_text(payload))


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _eigenvalues_csv(values) -> str:
    return _csv_lines(["index", "eigenvalue"], [[str(i + 1), fmt_float(v)] for i, v in enumerate(values)])


def _rational_matrix_csv(
    row_labels: Sequence[str], col_labels: Sequence[str], rows
) -> str:
    body = [
        [label] + [fmt_rational(x) for x in row] for label, row in zip(row_labels, rows)
    ]
    return _csv_lines([""] + list(col_labels), body)


def _decomposition_payload(spec_name: str, quantity_names, system, decomp: PiDecomposition):
    n = decomp.n
    return {
        "model": spec_name,
        "unit_system": list(system.unit_names),
        "quantities": list(quantity_names),
        "rank": decomp.rank,
        "n_pi_groups": n,
        "qoi_dimensionless": decomp.qoi_dimensionless,
        "w": [fmt_rational(x) for x in decomp.w],
        "W": [[fmt_rational(x) for x in row] for row in decomp.W],
        "A": [[fmt_rational(x) for x in row] for row in decomp.A],
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pi(args) -> int:
    spec = load_model(args.model)
    D = build_dimension_matrix(spec.quantities)
    with warnings.catch_warnings():
        # an incomplete unit system is a one-line note, on every run
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        decomp = pi_decomposition(D, spec.qoi)
    payload = _decomposition_payload(spec.name, D.column_names, spec.system, decomp)
    payload["D"] = [[fmt_rational(x) for x in row] for row in D.entries]
    _emit_json(payload, args.out, "pi.json")
    if args.out is not None:
        out = Path(args.out)
        _write_text(
            out, "D.csv", _rational_matrix_csv(spec.system.unit_names, D.column_names, D.entries)
        )
        _write_text(
            out,
            "w.csv",
            _csv_lines(
                ["quantity", "exponent"],
                [[name, fmt_rational(x)] for name, x in zip(D.column_names, decomp.w)],
            ),
        )
        pi_labels = [f"pi_{j + 1}" for j in range(decomp.n)]
        _write_text(
            out, "W.csv", _rational_matrix_csv(D.column_names, pi_labels, decomp.W)
        )
        a_labels = pi_labels if decomp.qoi_dimensionless else ["w"] + pi_labels
        _write_text(out, "A.csv", _rational_matrix_csv(D.column_names, a_labels, decomp.A))
        _write_run_json(out, "pi", {"model": args.model})
    return 0


def _cmd_active(args) -> int:
    model = pipeflow.bind_builtin(load_model(pipeflow.shipped_id(args.model)))
    grid = model.grid(args.quad_order)
    est = estimate_subspace(model.f, grid, args.fd_step)
    payload = {
        "model": args.model,
        "quad_order": args.quad_order,
        "fd_step": fmt_float(args.fd_step),
        "point_count": len(grid),
        "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
        "clamped": est.clamped,
    }
    _emit_json(payload, args.out, "active.json")
    if args.out is not None:
        out = Path(args.out)
        _write_text(out, "eigenvalues.csv", _eigenvalues_csv(est.eigenvalues))
        m = est.eigenvectors.shape[0]
        _write_text(
            out,
            "eigenvectors.csv",
            _csv_lines(
                ["component"] + [f"u_{j + 1}" for j in range(m)],
                [
                    [str(i + 1)] + [fmt_float(est.eigenvectors[i, j]) for j in range(m)]
                    for i in range(m)
                ],
            ),
        )
        _write_run_json(
            out,
            "active",
            {
                "model": args.model,
                "quad_order": args.quad_order,
                "fd_step": fmt_float(args.fd_step),
                "chunk_size": DEFAULT_CHUNK,
            },
        )
    return 0


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ModelError(f"cannot read matrix CSV {path!r}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ModelError(f"matrix CSV {path!r} has a non-finite entry")
    return data


def _cmd_inclusion(args) -> int:
    candidate = _load_matrix_csv(args.candidate)
    enclosing = _load_matrix_csv(args.enclosing)
    report = inclusion_residual(candidate, enclosing)
    payload = {
        "candidate": args.candidate,
        "enclosing": args.enclosing,
        "dims": list(report.dims),
        "per_column_residuals": [fmt_float(r) for r in report.per_column_residuals],
        "r2": fmt_float(report.total),
        "candidate_condition": fmt_float(report.candidate_condition),
        "enclosing_condition": fmt_float(report.enclosing_condition),
    }
    _emit_json(payload, args.out, "inclusion.json")
    if args.out is not None:
        _write_run_json(
            Path(args.out), "inclusion", {"candidate": args.candidate, "enclosing": args.enclosing}
        )
    return 0


def _sweep_csv(entries) -> str:
    rows = []
    for i, (h, r2) in enumerate(entries):
        slope = fit_loglog_slope(entries[: i + 1]) if i >= 1 else None
        rows.append([fmt_float(h), fmt_float(r2), "" if slope is None else fmt_float(slope)])
    return _csv_lines(["h", "r2", "slope_so_far"], rows)


def _finite_float(raw: str) -> float:
    """argparse type of every float option: nan, inf and non-numbers are usage errors."""
    try:
        value = float(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")


def _parse_steps(raw: str) -> List[float]:
    try:
        steps = [_finite_float(s) for s in raw.split(",") if s.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--steps: {exc}") from None
    if not steps:
        raise ModelError("--steps must name at least one step size")
    return steps


def _cmd_sweep(args) -> int:
    steps = _parse_steps(args.steps)
    result = convergence_sweep(pipeflow.builtin_model(args.model), steps, args.quad_order)
    payload = {
        "model": result.model,
        "quad_order": result.quad_order,
        "subspace_dim": result.subspace_dim,
        "entries": [[fmt_float(h), fmt_float(r2)] for h, r2 in result.entries],
        "slope": None if result.slope is None else fmt_float(result.slope),
    }
    _emit_json(payload, args.out, "sweep.json")
    if args.out is not None:
        out = Path(args.out)
        _write_text(out, "sweep.csv", _sweep_csv(list(result.entries)))
        _write_run_json(
            out,
            "sweep",
            {
                "model": args.model,
                "steps": [fmt_float(h) for h in steps],
                "quad_order": args.quad_order,
                "chunk_size": DEFAULT_CHUNK,
            },
        )
    return 0


def _cmd_eval(args) -> int:
    state = pipeflow.PipeState(
        rho=args.rho, mu=args.mu, diam=args.diam, eps=args.eps, dpdl=args.dpdl
    )
    try:
        with np.errstate(all="ignore"):
            velocity = pipeflow.bulk_velocity(state, re_critical=args.re_crit)
            numbers = {
                "V": velocity,
                "Re": pipeflow.reynolds(state, velocity),
                "f": pipeflow.friction_factor(state, velocity),
            }
            regime = pipeflow.flow_regime(state, re_critical=args.re_crit)
    except (ZeroDivisionError, OverflowError) as exc:  # raised by Python float arithmetic
        raise NumericalError(f"pipe state is outside the double range: {exc}") from None
    bad = [name for name, x in numbers.items() if not math.isfinite(x)]
    if bad:
        raise NumericalError(f"pipe state is outside the double range: {', '.join(bad)} not finite")
    payload = {name: fmt_float(x) for name, x in numbers.items()}
    payload["regime"] = regime
    print(_json_text(payload), end="")
    return 0


def _cmd_reproduce(args) -> int:
    builtin = pipeflow.builtin_model(args.regime, re_critical=args.re_crit)
    steps = _parse_steps(args.steps)
    # the --fd-step estimate shares the sweep's single pass over one grid
    sweep = convergence_sweep(builtin, steps, args.quad_order, fd_step=args.fd_step)
    est = sweep.estimate
    payload = {
        "model": builtin.name,
        "quad_order": args.quad_order,
        "fd_step": fmt_float(args.fd_step),
        "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
        "sweep": [[fmt_float(h), fmt_float(r2)] for h, r2 in sweep.entries],
        "slope": None if sweep.slope is None else fmt_float(sweep.slope),
    }
    _emit_json(payload, args.out, "reproduce.json")
    if args.out is not None:
        out = Path(args.out)
        _write_text(out, "eigenvalues.csv", _eigenvalues_csv(est.eigenvalues))
        _write_text(out, "sweep.csv", _sweep_csv(list(sweep.entries)))
        _write_run_json(
            out,
            "pipeflow reproduce",
            {
                "regime": args.regime,
                "quad_order": args.quad_order,
                "fd_step": fmt_float(args.fd_step),
                "steps": [fmt_float(h) for h in steps],
                "re_crit": fmt_float(args.re_crit),
                "chunk_size": DEFAULT_CHUNK,
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgelaw",
        description=(
            "Buckingham Pi nondimensionalization, active-subspace estimation, and "
            "subspace-inclusion checks for physical models"
        ),
    )
    parser.add_argument("--version", action="version", version=f"ridgelaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="exact pi-group decomposition of a model file")
    p_pi.add_argument("model", help="model JSON path or shipped model id")
    p_pi.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_pi.set_defaults(func=_cmd_pi)

    p_active = sub.add_parser("active", help="estimate the active subspace of a model")
    p_active.add_argument("--model", required=True, help="built-in id or model JSON with a builtin")
    p_active.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_active.add_argument("--fd-step", type=_finite_float, default=DEFAULT_FD_STEP)
    p_active.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_active.set_defaults(func=_cmd_active)

    p_incl = sub.add_parser("inclusion", help="subspace-inclusion residual of two bases")
    p_incl.add_argument("--candidate", required=True, help="CSV matrix, columns are basis vectors")
    p_incl.add_argument("--enclosing", required=True, help="CSV matrix, columns are basis vectors")
    p_incl.add_argument("--out", help="directory for JSON artifacts")
    p_incl.set_defaults(func=_cmd_inclusion)

    p_sweep = sub.add_parser("sweep", help="inclusion residual vs finite-difference step")
    p_sweep.add_argument("--model", required=True, help="built-in model id")
    p_sweep.add_argument(
        "--steps", required=True, help="comma-separated descending step sizes, e.g. 1e-2,1e-3"
    )
    p_sweep.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_sweep.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pipe = sub.add_parser("pipeflow", help="pipe-flow virtual laboratory")
    pipe_sub = p_pipe.add_subparsers(dest="pipeflow_command", required=True)

    p_eval = pipe_sub.add_parser("eval", help="evaluate one pipe state")
    p_eval.add_argument("--rho", type=_finite_float, required=True)
    p_eval.add_argument("--mu", type=_finite_float, required=True)
    p_eval.add_argument("--diam", type=_finite_float, required=True)
    p_eval.add_argument("--eps", type=_finite_float, required=True)
    p_eval.add_argument("--dpdl", type=_finite_float, required=True)
    p_eval.add_argument("--re-crit", type=_finite_float, default=pipeflow.RE_CRITICAL)
    p_eval.set_defaults(func=_cmd_eval)

    p_repro = pipe_sub.add_parser(
        "reproduce", help="run the full eigenvalue + inclusion-sweep experiment"
    )
    p_repro.add_argument("--regime", required=True, choices=["laminar", "turbulent"])
    p_repro.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_repro.add_argument("--fd-step", type=_finite_float, default=DEFAULT_FD_STEP)
    p_repro.add_argument(
        "--steps",
        default=",".join(fmt_float(h) for h in DEFAULT_SWEEP_STEPS),
        help="comma-separated descending step sizes for the sweep",
    )
    p_repro.add_argument("--re-crit", type=_finite_float, default=pipeflow.RE_CRITICAL)
    p_repro.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_repro.set_defaults(func=_cmd_reproduce)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # invalid numeric option values (step sizes, orders) are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
