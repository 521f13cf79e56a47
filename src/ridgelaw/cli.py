"""Command-line front end: model files, experiments, CSV/JSON artifacts.

Model files (schema and loader in ``ridgelaw.models``) are JSON: a unit
system, quantities with rational unit exponents and optional positive ranges,
a quantity of interest, and optionally the id of a built-in model function.

Each subcommand returns its JSON file name, its payload and a dict of CSV
texts. Each number is rendered once, into the payload, and the CSVs are joined
from the payload's strings. With --out (a directory; '' is a usage error),
``run_command`` writes the JSON text, the CSVs and a run.json whose config is
every parsed option but --out, then prints the JSON text. An estimating
subcommand makes one call, ``_recorded``, which loads its model by ``load_model``,
binds it at ``re_crit`` and adds ``chunk_size``, the model file and its sha256
to the config. Identical invocations produce byte-identical artifacts.
JSON texts have the bytes of ``json.dumps(x, indent=2, sort_keys=True)``
but are built by joins (``_json_text``); every artifact is written as UTF-8
bytes; a CSV field is quoted (RFC 4180) only when it holds a comma, a
double quote, CR or LF, which only a label can.

Only the exact layer is imported at module level: the estimating
subcommands import numpy and the estimation modules inside their functions,
so ``pi``, --help, --version and usage errors run without numpy. The parser
does not depend on argv: ``build_parser`` builds it on the first call, not at
import, and every later ``run_command`` in the process reuses it.

Exit codes: 0 success, 2 usage error (one ``usage error:`` line, argparse's
errors included), 3 model/schema error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, List, Sequence

from . import __version__
from .errors import ModelError, NumericalError
from .models import RE_CRITICAL, SHIPPED_MODELS, load_model, short_form
from .pigroups import build_dimension_matrix, pi_decomposition

DEFAULT_QUAD_ORDER = 11
DEFAULT_FD_STEP = 1e-5
DEFAULT_SWEEP_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def fmt_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


def fmt_rational(x: Fraction | int) -> str:
    return str(x)  # Fraction renders as "p" or "p/q", int as "p"


# ---------------------------------------------------------------------------
# artifact writers


def _write_files(out_dir: Path, files) -> None:
    """Create out_dir once, then write each (filename, text) into it as UTF-8 bytes."""
    target = out_dir / files[0][0]  # a directory that cannot be made is reported with the first file
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for filename, text in files:
            target = out_dir / filename
            data = memoryview(text.encode())
            fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
    except OSError as exc:
        # an unusable --out is a usage error
        raise ValueError(f"cannot write {str(target)!r}: {exc.strerror or exc}") from None


# printable ASCII but '"' and '\\': the strings that JSON writes between quotes as they are
_JSON_PLAIN = re.compile(r'[ !#-\[\]-~]*')


def _plain_strings(items) -> bool:
    """True when items are all strings that JSON writes as they are."""
    try:
        return _JSON_PLAIN.fullmatch("".join(items)) is not None
    except TypeError:  # an item that is not a string
        return False


def _json_parts(x, indent: str, parts: list) -> None:
    """Append the JSON text of x, nested at indent (a newline and its spaces), to parts."""
    if isinstance(x, str):
        parts.append(encode_basestring_ascii(x))
    elif isinstance(x, (list, tuple)) and x:
        inner = indent + "  "
        if isinstance(x[0], str) and _plain_strings(x):  # one join for the whole list
            parts.append(f'[{inner}"' + f'",{inner}"'.join(x) + f'"{indent}]')
        else:
            sep = "[" + inner
            for item in x:
                parts.append(sep)
                _json_parts(item, inner, parts)
                sep = "," + inner
            parts.append(indent + "]")
    elif isinstance(x, dict) and x:  # string keys, as in every payload
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _json_parts(value, inner, parts)
            sep = "," + inner
        parts.append(indent + "}")
    else:  # scalars, [] and {}
        parts.append(json.dumps(x))


def _json_text(payload) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + newline, built by joins.

    json.dumps with an indent never runs the C encoder; here each list of
    strings that JSON writes unchanged is one join, every other string goes
    through the C string encoder, and scalars through json.dumps. Dict keys
    are strings.
    """
    parts: list = []
    _json_parts(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


# namespace entries that are not options of the run
_NOT_CONFIG = ("command", "pipeflow_command", "func", "out")


def _config_value(x):
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, list):
        return [_config_value(v) for v in x]
    return x


def _run_json(args) -> str:
    """run.json text: the subcommand and every parsed option but --out."""
    command = " ".join(filter(None, (args.command, getattr(args, "pipeflow_command", None))))
    config = {k: _config_value(v) for k, v in vars(args).items() if k not in _NOT_CONFIG}
    return _json_text({"command": command, "package": "ridgelaw", "version": __version__, "config": config})


# a field that holds one of these is quoted, as RFC 4180 specifies
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(x: str) -> str:
    return '"' + x.replace('"', '""') + '"' if _CSV_SPECIAL.search(x) else x


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """One line per row, fields joined by commas; only a field that needs it is quoted."""
    lines = [header, *rows]
    if _CSV_SPECIAL.search("".join(map("".join, lines))):
        lines = [[_csv_field(x) for x in line] for line in lines]
    return "\n".join(map(",".join, lines)) + "\n"


def _eigenvalues_csv(values: Sequence[str]) -> str:
    return _csv_lines(["index", "eigenvalue"], [[str(i + 1), v] for i, v in enumerate(values)])


def _rational_matrix_csv(row_labels: Sequence[str], col_labels: Sequence[str], rows) -> str:
    return _csv_lines([""] + list(col_labels), [[label, *row] for label, row in zip(row_labels, rows)])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pi(args):
    spec = load_model(args.model)
    D = build_dimension_matrix(spec.quantities)
    decomp = pi_decomposition(D, spec.qoi)
    w = [fmt_rational(x) for x in decomp.w]
    W = [[fmt_rational(x) for x in row] for row in decomp.W]
    payload = {
        "model": spec.name,
        "unit_system": list(spec.system.unit_names),
        "quantities": list(D.column_names),
        "rank": decomp.rank,
        "n_pi_groups": decomp.n,
        "qoi_dimensionless": decomp.qoi_dimensionless,
        "w": w,
        "W": W,
        "A": W if decomp.qoi_dimensionless else [[x, *row] for x, row in zip(w, W)],  # A = [w | W]
        "D": [[fmt_rational(x) for x in row] for row in D.entries],
    }

    pi_labels = [f"pi_{j + 1}" for j in range(decomp.n)]
    a_labels = pi_labels if decomp.qoi_dimensionless else ["w"] + pi_labels
    quantities = payload["quantities"]
    return "pi.json", payload, {
        "D.csv": _rational_matrix_csv(payload["unit_system"], quantities, payload["D"]),
        "w.csv": _csv_lines(["quantity", "exponent"], zip(quantities, payload["w"])),
        "W.csv": _rational_matrix_csv(quantities, pi_labels, payload["W"]),
        "A.csv": _rational_matrix_csv(quantities, a_labels, payload["A"]),
    }


def _recorded(args, model: str):
    """The named model loaded by load_model and bound at --re-crit; the config gets chunk size, file and sha256."""
    import hashlib  # here, not at module level: importing cli and running pi do without it

    from .pipeflow import bind_builtin
    from .quadrature import DEFAULT_CHUNK  # read now: the value the pass will use

    bound = bind_builtin(load_model(model), args.re_crit)
    args.chunk_size, args.model_file = DEFAULT_CHUNK, bound.spec.source
    args.model_sha256 = hashlib.sha256(bound.spec.text.encode()).hexdigest()
    return bound


def _cmd_active(args):
    from .activesubspace import eigendecompose, estimate_C

    model = _recorded(args, args.model)
    grid = model.grid(args.quad_order)
    est = eigendecompose(estimate_C(model.f, grid, args.fd_step))
    payload = {
        "model": args.model,
        "quad_order": args.quad_order,
        "fd_step": fmt_float(args.fd_step),
        "point_count": len(grid),
        "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
        "clamped": est.clamped,
    }

    m = est.eigenvectors.shape[0]
    rows = [[str(i + 1)] + [fmt_float(x) for x in est.eigenvectors[i]] for i in range(m)]
    return "active.json", payload, {
        "eigenvalues.csv": _eigenvalues_csv(payload["eigenvalues"]),
        "eigenvectors.csv": _csv_lines(["component"] + [f"u_{j + 1}" for j in range(m)], rows),
    }


def _load_matrix_csv(path: str):
    import numpy as np

    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file without data rows; the size check reports it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ModelError(f"cannot read matrix CSV {path!r}: {exc}") from exc
    if data.size == 0:
        raise ModelError(f"matrix CSV {path!r} has no data")
    if not np.isfinite(data).all():
        raise ModelError(f"matrix CSV {path!r} has a non-finite entry")
    return data


def _cmd_inclusion(args):
    from .subspace import inclusion_residual

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
    return "inclusion.json", payload, {}


def _sweep_csv(entries, rendered) -> str:
    """Each row's h and r2 as rendered in the payload, then the slope fitted to the (h, r2) floats so far."""
    from .subspace import fit_loglog_slope

    rows = []
    for i, (h, r2) in enumerate(rendered):
        slope = fit_loglog_slope(entries[: i + 1]) if i >= 1 else None
        rows.append([h, r2, "" if slope is None else fmt_float(slope)])
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


def _positive_float(raw: str) -> float:
    """argparse type of --re-crit: a finite number above zero."""
    value = _finite_float(raw)
    if value > 0.0:
        return value
    raise argparse.ArgumentTypeError(f"expected a positive number, got {raw!r}")


def _parse_steps(raw: str) -> List[float]:
    """argparse type of --steps: comma-separated finite numbers, at least one."""
    steps = [_finite_float(s) for s in raw.split(",") if s.strip()]
    if not steps:
        raise argparse.ArgumentTypeError(f"expected at least one step size, got {raw!r}")
    return steps


def _cmd_sweep(args):
    from .subspace import convergence_sweep

    model = _recorded(args, args.model)
    result = convergence_sweep(model, args.steps, args.quad_order)
    payload = {
        "model": model.name,
        "quad_order": args.quad_order,
        "subspace_dim": result.subspace_dim,
        "entries": [[fmt_float(h), fmt_float(r2)] for h, r2 in result.entries],
        "slope": None if result.slope is None else fmt_float(result.slope),
    }
    return "sweep.json", payload, {"sweep.csv": _sweep_csv(result.entries, payload["entries"])}


def _cmd_eval(args):
    import numpy as np

    from . import pipeflow

    numbers, regime = pipeflow.evaluate_state(args.rho, args.mu, args.diam, args.eps, args.dpdl, args.re_crit)
    if len(numbers) < 3 or not np.isfinite(list(numbers.values())).all():
        shown = ", ".join(f"{name} = {fmt_float(x)}" for name, x in numbers.items())
        raise NumericalError(f"pipe state is outside the double range: {shown}")
    payload = {name: fmt_float(x) for name, x in numbers.items()}
    payload["regime"] = regime
    return None, payload, {}


def _cmd_reproduce(args):
    from .subspace import convergence_sweep

    builtin = _recorded(args, args.regime)
    # the --fd-step estimate shares the sweep's single pass over one grid
    sweep = convergence_sweep(builtin, args.steps, args.quad_order, fd_step=args.fd_step)
    est = sweep.estimate
    payload = {
        "model": builtin.name,
        "quad_order": args.quad_order,
        "fd_step": fmt_float(args.fd_step),
        "eigenvalues": [fmt_float(v) for v in est.eigenvalues],
        "sweep": [[fmt_float(h), fmt_float(r2)] for h, r2 in sweep.entries],
        "slope": None if sweep.slope is None else fmt_float(sweep.slope),
    }
    return "reproduce.json", payload, {
        "eigenvalues.csv": _eigenvalues_csv(payload["eigenvalues"]),
        "sweep.csv": _sweep_csv(sweep.entries, payload["sweep"]),
    }


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, for run_command to print; its subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; each parse returns a fresh namespace."""
    parser = _Parser(
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
    p_active.set_defaults(func=_cmd_active, re_crit=RE_CRITICAL)

    p_incl = sub.add_parser("inclusion", help="subspace-inclusion residual of two bases")
    p_incl.add_argument("--candidate", required=True, help="CSV matrix, columns are basis vectors")
    p_incl.add_argument("--enclosing", required=True, help="CSV matrix, columns are basis vectors")
    p_incl.add_argument("--out", help="directory for JSON artifacts")
    p_incl.set_defaults(func=_cmd_inclusion)

    p_sweep = sub.add_parser("sweep", help="inclusion residual vs finite-difference step")
    p_sweep.add_argument("--model", required=True, help="built-in id or model JSON with a builtin")
    p_sweep.add_argument(
        "--steps",
        type=_parse_steps,
        required=True,
        help="comma-separated descending step sizes, e.g. 1e-2,1e-3",
    )
    p_sweep.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_sweep.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_sweep.set_defaults(func=_cmd_sweep, re_crit=RE_CRITICAL)

    p_pipe = sub.add_parser("pipeflow", help="pipe-flow virtual laboratory")
    pipe_sub = p_pipe.add_subparsers(dest="pipeflow_command", required=True)

    p_eval = pipe_sub.add_parser("eval", help="evaluate one pipe state")
    p_eval.add_argument("--rho", type=_finite_float, required=True)
    p_eval.add_argument("--mu", type=_finite_float, required=True)
    p_eval.add_argument("--diam", type=_finite_float, required=True)
    p_eval.add_argument("--eps", type=_finite_float, required=True)
    p_eval.add_argument("--dpdl", type=_finite_float, required=True)
    p_eval.add_argument("--re-crit", type=_positive_float, default=RE_CRITICAL)
    p_eval.set_defaults(func=_cmd_eval)

    p_repro = pipe_sub.add_parser(
        "reproduce", help="run the full eigenvalue + inclusion-sweep experiment"
    )
    p_repro.add_argument("--regime", required=True, choices=[short_form(m) for m in SHIPPED_MODELS])
    p_repro.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER)
    p_repro.add_argument("--fd-step", type=_finite_float, default=DEFAULT_FD_STEP)
    p_repro.add_argument(
        "--steps",
        type=_parse_steps,
        default=",".join(fmt_float(h) for h in DEFAULT_SWEEP_STEPS),
        help="comma-separated descending step sizes for the sweep",
    )
    p_repro.add_argument("--re-crit", type=_positive_float, default=RE_CRITICAL)
    p_repro.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_repro.set_defaults(func=_cmd_reproduce)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    try:
        args = build_parser().parse_args(list(argv))
        out = getattr(args, "out", None)  # pipeflow eval has no --out
        if out == "":  # Path("") is the working directory
            raise ValueError("argument --out: expected a directory name, got ''")
        with warnings.catch_warnings():
            # a library note, such as an incomplete unit system, is one line on every run;
            # only UserWarning, so a filter that turns numpy's RuntimeWarning into an error still holds
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            name, payload, files = args.func(args)
        text = _json_text(payload)
        if out is not None:
            _write_files(Path(out), [(name, text), *files.items(), ("run.json", _run_json(args))])
        print(text, end="")  # after the artifacts: an unusable --out prints nothing to stdout
        return 0
    except SystemExit as exc:  # --help and --version print and exit 0
        return int(exc.code or 0)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # argparse errors and invalid numeric option values (step sizes, orders)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
