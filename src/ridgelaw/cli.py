"""Command-line front end: model files, experiments, CSV/JSON artifacts.

Model files are JSON: a unit system, quantities with rational unit exponents
and optional positive ranges, a quantity of interest, and optionally the id
of a built-in model function. Every run with an --out directory also writes
a run.json capturing the full resolved configuration, and identical
invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 usage error, 3 model/schema error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .activesubspace import GradientConfig, estimate_subspace
from .dimensions import DimensionVector, QuantityDecl, UnitSystem, as_fraction, make_dimension
from .errors import ModelError, NumericalError
from .pigroups import PiDecomposition, pi_decomposition
from .quadrature import tensor_grid
from .subspace import convergence_sweep, fit_loglog_slope, inclusion_residual
from . import pipeflow

SHIPPED_MODELS = ("pipeflow_laminar", "pipeflow_turbulent")

DEFAULT_QUAD_ORDER = 11
DEFAULT_FD_STEP = 1e-5
DEFAULT_SWEEP_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def fmt_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


def fmt_rational(x: Fraction) -> str:
    return str(x)  # Fraction renders as "p" or "p/q"


@dataclass(frozen=True)
class ModelSpec:
    """Validated model file: unit system, quantities, QoI, optional builtin id."""

    name: str
    system: UnitSystem
    quantities: Tuple[QuantityDecl, ...]
    qoi_name: str
    qoi: DimensionVector
    builtin: Optional[str] = None

    def decomposition(self) -> PiDecomposition:
        return pi_decomposition(self.quantities, self.qoi)

    def log_bounds(self) -> Tuple[Tuple[float, float], ...]:
        missing = [q.name for q in self.quantities if not q.has_range]
        if missing:
            raise ModelError(
                f"subspace estimation needs ranges for all quantities; missing: {missing}"
            )
        return tuple(
            (float(np.log(q.range_lo)), float(np.log(q.range_hi))) for q in self.quantities
        )

    def model_function(self):
        if self.builtin is None:
            raise ModelError(
                f"model {self.name!r} declares no built-in function; "
                "only pi-group analysis is available for it"
            )
        return pipeflow.builtin_model(self.builtin).f


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ModelError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _parse_dimension(system: UnitSystem, raw: dict, context: str) -> DimensionVector:
    if not isinstance(raw, dict):
        raise ModelError(f"{context}: 'dimension' must be an object of unit: exponent pairs")
    pairs = []
    for label, exponent in raw.items():
        if not isinstance(exponent, (int, str)):
            raise ModelError(
                f"{context}: exponent for unit {label!r} must be an integer or 'p/q' string"
            )
        pairs.append((label, as_fraction(exponent)))
    return make_dimension(system, pairs)


def load_model(path_or_id: str) -> ModelSpec:
    """Load and validate a model file; shipped model ids resolve to packaged files."""
    if path_or_id in SHIPPED_MODELS:
        text = resources.files("ridgelaw.models").joinpath(f"{path_or_id}.json").read_text()
        name = path_or_id
    else:
        path = Path(path_or_id)
        if not path.exists():
            raise ModelError(
                f"model {path_or_id!r} is neither a file nor one of the shipped "
                f"models {list(SHIPPED_MODELS)}"
            )
        text = path.read_text()
        name = path.stem
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model {name!r}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"model {name!r}: top level must be an object")

    units = _require(doc, "unit_system", f"model {name!r}")
    if not isinstance(units, list) or not all(isinstance(u, str) for u in units):
        raise ModelError(f"model {name!r}: 'unit_system' must be a list of unit labels")
    system = UnitSystem(tuple(units))

    raw_quantities = _require(doc, "quantities", f"model {name!r}")
    if not isinstance(raw_quantities, list) or not raw_quantities:
        raise ModelError(f"model {name!r}: 'quantities' must be a non-empty list")
    quantities = []
    for i, raw in enumerate(raw_quantities):
        ctx = f"model {name!r}, quantity #{i}"
        if not isinstance(raw, dict):
            raise ModelError(f"{ctx}: must be an object")
        qname = _require(raw, "name", ctx)
        dim = _parse_dimension(system, _require(raw, "dimension", ctx), f"{ctx} ({qname!r})")
        lo = hi = None
        if "range" in raw:
            rng = raw["range"]
            if not (isinstance(rng, list) and len(rng) == 2):
                raise ModelError(f"{ctx} ({qname!r}): 'range' must be [lo, hi]")
            lo, hi = rng
        quantities.append(QuantityDecl(name=qname, dimension=dim, range_lo=lo, range_hi=hi))
    names = [q.name for q in quantities]
    if len(set(names)) != len(names):
        raise ModelError(f"model {name!r}: quantity names must be unique, got {names}")

    raw_qoi = _require(doc, "qoi", f"model {name!r}")
    qoi_name = _require(raw_qoi, "name", f"model {name!r} qoi")
    if qoi_name in names:
        raise ModelError(
            f"model {name!r}: quantity of interest {qoi_name!r} must not also be an input quantity"
        )
    qoi = _parse_dimension(system, _require(raw_qoi, "dimension", f"model {name!r} qoi"), "qoi")

    builtin = doc.get("builtin")
    if builtin is not None and builtin not in pipeflow._REGIME_ALIASES:
        raise ModelError(f"model {name!r}: unknown builtin id {builtin!r}")
    return ModelSpec(
        name=name,
        system=system,
        quantities=tuple(quantities),
        qoi_name=qoi_name,
        qoi=qoi,
        builtin=builtin,
    )


# ---------------------------------------------------------------------------
# artifact writers


def _write_text(out_dir: Path, filename: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / filename
    target.write_text(text)
    return target


def _write_json(out_dir: Path, filename: str, payload) -> Path:
    return _write_text(out_dir, filename, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run_json(out_dir: Optional[Path], command: str, config: dict):
    if out_dir is None:
        return
    payload = {"command": command, "package": "ridgelaw", "version": __version__, "config": config}
    _write_json(out_dir, "run.json", payload)


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


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
    from .pigroups import build_dimension_matrix

    D = build_dimension_matrix(spec.quantities)
    decomp = spec.decomposition()
    payload = _decomposition_payload(spec.name, D.column_names, spec.system, decomp)
    payload["D"] = [[fmt_rational(x) for x in row] for row in D.entries]
    print(json.dumps(payload, indent=2, sort_keys=True))
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
        _write_json(out, "pi.json", payload)
        _write_run_json(out, "pi", {"model": args.model})
    return 0


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("RIDGELAW_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ModelError(f"RIDGELAW_THREADS must be an integer, got {env!r}") from None
    return 1


def _estimation_inputs(model_id: str):
    """Model function, grid bounds, decomposition, and expected active dim."""
    if model_id in pipeflow._REGIME_ALIASES:
        builtin = pipeflow.builtin_model(model_id)
        return builtin.f, builtin.log_bounds, builtin.decomposition, builtin.active_dim
    spec = load_model(model_id)
    f = spec.model_function()
    builtin = pipeflow.builtin_model(spec.builtin)
    return f, spec.log_bounds(), spec.decomposition(), builtin.active_dim


def _cmd_active(args) -> int:
    f, log_bounds, _, _ = _estimation_inputs(args.model)
    grid = tensor_grid(args.quad_order, log_bounds)
    cfg = GradientConfig(h=args.fd_step)
    threads = _resolve_threads(args)
    est = estimate_subspace(f, grid, cfg, threads=threads)
    payload = {
        "model": args.model,
        "quad_order": args.quad_order,
        "fd_step": fmt_float(args.fd_step),
        "point_count": len(grid),
        "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
        "clamped": est.clamped,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        _write_text(
            out,
            "eigenvalues.csv",
            _csv_lines(
                ["index", "eigenvalue"],
                [[str(i + 1), fmt_float(v)] for i, v in enumerate(est.eigenvalues)],
            ),
        )
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
        _write_json(out, "active.json", payload)
        _write_run_json(
            out,
            "active",
            {
                "model": args.model,
                "quad_order": args.quad_order,
                "fd_step": fmt_float(args.fd_step),
                "threads": threads,
            },
        )
    return 0


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ModelError(f"cannot read matrix CSV {path!r}: {exc}") from exc
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
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        _write_json(out, "inclusion.json", payload)
        _write_run_json(
            out, "inclusion", {"candidate": args.candidate, "enclosing": args.enclosing}
        )
    return 0


def _sweep_csv(entries) -> str:
    rows = []
    for i, (h, r2) in enumerate(entries):
        slope = fit_loglog_slope(entries[: i + 1]) if i >= 1 else None
        rows.append([fmt_float(h), fmt_float(r2), "" if slope is None else fmt_float(slope)])
    return _csv_lines(["h", "r2", "slope_so_far"], rows)


def _parse_steps(raw: str) -> List[float]:
    try:
        steps = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ModelError(f"--steps must be a comma-separated list of floats, got {raw!r}") from None
    if not steps:
        raise ModelError("--steps must name at least one step size")
    return steps


def _cmd_sweep(args) -> int:
    steps = _parse_steps(args.steps)
    threads = _resolve_threads(args)
    result = convergence_sweep(
        pipeflow.builtin_model(args.model), steps, args.quad_order, threads=threads
    )
    payload = {
        "model": result.model,
        "quad_order": result.quad_order,
        "subspace_dim": result.subspace_dim,
        "entries": [[fmt_float(h), fmt_float(r2)] for h, r2 in result.entries],
        "slope": None if result.slope is None else fmt_float(result.slope),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        _write_text(out, "sweep.csv", _sweep_csv(list(result.entries)))
        _write_json(out, "sweep.json", payload)
        _write_run_json(
            out,
            "sweep",
            {
                "model": args.model,
                "steps": [fmt_float(h) for h in steps],
                "quad_order": args.quad_order,
                "threads": threads,
            },
        )
    return 0


def _cmd_pipeflow(args) -> int:
    if args.pipeflow_command == "eval":
        state = pipeflow.PipeState(
            rho=args.rho, mu=args.mu, diam=args.diam, eps=args.eps, dpdl=args.dpdl
        )
        velocity = pipeflow.bulk_velocity(state, re_critical=args.re_crit)
        payload = {
            "V": fmt_float(velocity),
            "Re": fmt_float(pipeflow.reynolds(state, velocity)),
            "f": fmt_float(pipeflow.friction_factor(state, velocity)),
            "regime": pipeflow.flow_regime(state, re_critical=args.re_crit),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.pipeflow_command == "reproduce":
        threads = _resolve_threads(args)
        builtin = pipeflow.builtin_model(args.regime, re_critical=args.re_crit)
        steps = _parse_steps(args.steps)
        # the --fd-step estimate shares the sweep's single pass over one grid
        sweep = convergence_sweep(
            builtin, steps, args.quad_order, threads=threads, fd_step=args.fd_step
        )
        est = sweep.estimate
        payload = {
            "model": builtin.name,
            "quad_order": args.quad_order,
            "fd_step": fmt_float(args.fd_step),
            "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
            "sweep": [[fmt_float(h), fmt_float(r2)] for h, r2 in sweep.entries],
            "slope": None if sweep.slope is None else fmt_float(sweep.slope),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.out is not None:
            out = Path(args.out)
            _write_text(
                out,
                "eigenvalues.csv",
                _csv_lines(
                    ["index", "eigenvalue"],
                    [[str(i + 1), fmt_float(v)] for i, v in enumerate(est.eigenvalues)],
                ),
            )
            _write_text(out, "sweep.csv", _sweep_csv(list(sweep.entries)))
            _write_json(out, "reproduce.json", payload)
            _write_run_json(
                out,
                "pipeflow reproduce",
                {
                    "regime": args.regime,
                    "quad_order": args.quad_order,
                    "fd_step": fmt_float(args.fd_step),
                    "steps": [fmt_float(h) for h in steps],
                    "re_crit": fmt_float(args.re_crit),
                    "threads": threads,
                },
            )
        return 0
    raise ModelError(f"unknown pipeflow subcommand {args.pipeflow_command!r}")


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
    p_active.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP)
    p_active.add_argument("--threads", type=int, default=None)
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
    p_sweep.add_argument("--threads", type=int, default=None)
    p_sweep.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pipe = sub.add_parser("pipeflow", help="pipe-flow virtual laboratory")
    pipe_sub = p_pipe.add_subparsers(dest="pipeflow_command", required=True)

    p_eval = pipe_sub.add_parser("eval", help="evaluate one pipe state")
    p_eval.add_argument("--rho", type=float, required=True)
    p_eval.add_argument("--mu", type=float, required=True)
    p_eval.add_argument("--diam", type=float, required=True)
    p_eval.add_argument("--eps", type=float, required=True)
    p_eval.add_argument("--dpdl", type=float, required=True)
    p_eval.add_argument("--re-crit", type=float, default=pipeflow.RE_CRITICAL)
    p_eval.set_defaults(func=_cmd_pipeflow)

    p_repro = pipe_sub.add_parser(
        "reproduce", help="run the full eigenvalue + inclusion-sweep experiment"
    )
    p_repro.add_argument("--regime", required=True, choices=["laminar", "turbulent"])
    p_repro.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_repro.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP)
    p_repro.add_argument(
        "--steps",
        default=",".join(fmt_float(h) for h in DEFAULT_SWEEP_STEPS),
        help="comma-separated descending step sizes for the sweep",
    )
    p_repro.add_argument("--re-crit", type=float, default=pipeflow.RE_CRITICAL)
    p_repro.add_argument("--threads", type=int, default=None)
    p_repro.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_repro.set_defaults(func=_cmd_pipeflow)

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
