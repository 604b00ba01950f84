"""Command-line front end.

Subcommands: experiment, sweep, census, extension-types, estimate-mu.
Exit codes: 0 success, 2 config error, 3 runtime/IO error.

Radius convention: --r (and --alpha derived radii) is the BALL radius r;
two points are connected when they are within distance 2r. Do not pass a
connectivity radius here, it is not rescaled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import __version__
from .census import enumerate_extension_types, estimate_mu
from .experiments import RegimeSpec, instance_census, run_experiment
from .generators import RngStream


def _fail(code: int, category: str, message: str) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file plus rename, so failures never leave partial output.

    The file gets the mode `open(path, "w")` would give (0666 less the
    umask), not the owner-only mode of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_NUMBER = (int, float)
# The type argparse gives each regime flag, in flag order.
_KEY_TYPES = {
    "model": (str,), "k": (int,), "n": (int,), "d": (int,), "p": _NUMBER,
    "r": _NUMBER, "gamma": _NUMBER, "alpha": _NUMBER, "density": (str,),
}
_REGIME_KEYS = tuple(_KEY_TYPES)


def _merge_config(args: argparse.Namespace, keys) -> dict:
    """Optional JSON config file; explicit flags override file values.

    File values are type-checked against their flags. The model name "er"
    is an alias of "er_clique", in files and flags alike.
    """
    merged = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            file_cfg = json.load(handle)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must contain a JSON object")
        for key, val in file_cfg.items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}")
            # a file value must have its flag's type; JSON true/false is no number
            expected = _KEY_TYPES[key]
            if isinstance(val, bool) or not isinstance(val, expected):
                names = " or ".join(t.__name__ for t in expected)
                raise ValueError(
                    f"config key {key!r} must be {names}, got {json.dumps(val)}"
                )
            merged[key] = val
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if merged.get("model") == "er":
        merged["model"] = "er_clique"
    return merged


def _regime_from(cfg: dict) -> RegimeSpec:
    for req in ("model", "k", "n"):
        if req not in cfg:
            raise ValueError(f"missing required parameter --{req}")
    return RegimeSpec(**cfg)


def _add_regime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--model", choices=("er", "er_clique", "cech", "rips"))
    parser.add_argument("--k", type=int, help="target degree")
    parser.add_argument("--n", type=int, help="number of vertices/points")
    parser.add_argument("--d", type=int, help="ambient dimension (geometric models)")
    parser.add_argument("--p", type=float, help="ER edge probability")
    parser.add_argument("--gamma", type=float, help="ER scaling: p = n^-gamma")
    parser.add_argument("--r", type=float, help="ball radius (edges at distance <= 2r)")
    parser.add_argument("--alpha", type=float, help="geometric scaling target")
    parser.add_argument("--density", choices=("uniform_cube", "gaussian"))


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.seed is None:
        return _fail(2, "config", "--seed is required (no silent nondeterminism)")
    try:
        cfg = _merge_config(args, _REGIME_KEYS)
        spec = _regime_from(cfg)
        result = run_experiment(spec, args.trials, args.seed, workers=args.workers)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(2, "config", str(exc))
    try:
        _atomic_write(args.out_csv, result.trials_csv())
        _atomic_write(args.out_json, result.summary_json())
    except OSError as exc:
        return _fail(3, "io", str(exc))
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote {args.out_csv} and {args.out_json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seed is None:
        return _fail(2, "config", "--seed is required")
    try:
        cfg = _merge_config(args, tuple(k for k in _REGIME_KEYS if k not in ("p", "r")))
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        if not grid:
            raise ValueError("empty parameter grid")
        if "model" not in cfg:
            raise ValueError("missing required parameter --model")
        model = cfg["model"]
        if model == "cech":
            raise ValueError("sweep supports the er and rips models")
        max_k = args.max_k
        if max_k < 0:
            raise ValueError(f"--max-k must be >= 0, got {max_k}")
        cfg["k"] = max(cfg.get("k") or 0, max_k, 1 if model == "rips" else 0)
        rows = []
        for value in grid:
            point = dict(cfg)
            point["p" if model == "er_clique" else "r"] = value
            # betti_0..betti_max_k all come from the same trial rows
            result = run_experiment(
                _regime_from(point), args.trials, args.seed, workers=args.workers
            )
            rows.append(
                [value] + [result.means.get(f"betti_{i}", 0.0) for i in range(max_k + 1)]
            )
    except (ValueError, KeyError, OSError) as exc:
        return _fail(2, "config", str(exc))
    header = "# config: " + json.dumps(
        {**cfg, "grid": grid, "max_k": max_k, "trials": args.trials,
         "master_seed": args.seed, "version": __version__},
        sort_keys=True,
    )
    lines = [header, ",".join(["param"] + [f"betti_{i}_mean" for i in range(max_k + 1)])]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    try:
        _atomic_write(args.out, "\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(3, "io", str(exc))
    print(f"wrote {args.out}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    if args.seed is None:
        return _fail(2, "config", "--seed is required")
    try:
        cfg = _merge_config(args, _REGIME_KEYS)
        spec = _regime_from(cfg)
        row = instance_census(spec, RngStream(args.seed, args.stream))
    except (ValueError, KeyError, OSError) as exc:
        return _fail(2, "config", str(exc))
    payload = {
        "version": __version__,
        "regime": spec.record(),
        "master_seed": args.seed,
        "stream_index": args.stream,
        "census": row,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            _atomic_write(args.out, text)
        except OSError as exc:
            return _fail(3, "io", str(exc))
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_extension_types(args: argparse.Namespace) -> int:
    if not 0 <= args.k <= 3:
        return _fail(2, "config", f"k={args.k} outside supported range 0..3")
    classes = sorted(
        enumerate_extension_types(args.k), key=lambda cg: cg.edges
    )
    print(f"k={args.k} classes={len(classes)}")
    for cg in classes:
        edge_text = " ".join(f"{u}-{v}" for u, v in cg.edges)
        print(f"{cg.vertex_count} vertices: {edge_text}")
    return 0


def cmd_estimate_mu(args: argparse.Namespace) -> int:
    if args.seed is None:
        return _fail(2, "config", "--seed is required")
    try:
        est = estimate_mu(args.k, args.d, args.samples, RngStream(args.seed))
    except ValueError as exc:
        return _fail(2, "config", str(exc))
    print(
        json.dumps(
            {
                "k": args.k,
                "d": args.d,
                "samples": est.samples,
                "hits": est.hits,
                "mu": est.value,
                "std_error": est.std_error,
                "master_seed": args.seed,
                "version": __version__,
            },
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcomplex",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run seeded trials of one regime")
    _add_regime_flags(p_exp)
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=None, help="master seed (required)")
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.add_argument("--out-csv", default="trials.csv")
    p_exp.add_argument("--out-json", default="summary.json")
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser("sweep", help="mean Betti numbers over a parameter grid")
    _add_regime_flags(p_sweep)
    p_sweep.add_argument("--grid", required=True, help="comma-separated p or r values")
    p_sweep.add_argument("--max-k", type=int, default=1)
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_census = sub.add_parser("census", help="census of a single generated instance")
    _add_regime_flags(p_census)
    p_census.add_argument("--seed", type=int, default=None)
    p_census.add_argument("--stream", type=int, default=0, help="trial/stream index")
    p_census.add_argument("--out", default=None)
    p_census.set_defaults(func=cmd_census)

    p_ext = sub.add_parser(
        "extension-types", help="isomorphism classes from the clique-extension step"
    )
    p_ext.add_argument("--k", type=int, required=True)
    p_ext.set_defaults(func=cmd_extension_types)

    p_mu = sub.add_parser("estimate-mu", help="Monte Carlo empty-simplex integral")
    p_mu.add_argument("--k", type=int, required=True)
    p_mu.add_argument("--d", type=int, required=True)
    p_mu.add_argument("--samples", type=int, default=1_000_000)
    p_mu.add_argument("--seed", type=int, default=None)
    p_mu.set_defaults(func=cmd_estimate_mu)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable failure
        return _fail(3, "runtime", str(exc))


if __name__ == "__main__":
    sys.exit(main())
