"""Experiment runner: seeded synthetic experiments with deterministic reports.

Subcommands
-----------
converge-attn    sampled vs reweighted network outputs across sample sizes
converge-match   grouped sampled matching vs reweighted matching
sinkhorn-check   feasibility suite for the transport solver
reduce-check     uniform-weight reduction identities
sparsify         score-head training runs and pruning summaries

Each subcommand accepts ``--config`` (flat key=value lines with ``#``
comments, or a JSON object), ``--seed`` (overrides the config seed),
``--out`` (report directory), and ``--format`` (csv or json).  Reports embed
the fully resolved configuration and a format-version field, floats are
printed with 17 significant digits, and identical config plus seed yields
byte-identical files.

Exit codes: 0 success, 1 acceptance threshold not met, 2 numerical failure,
3 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .attention import (
    LinearSim,
    ProbabilityWeights,
    SoftmaxSim,
    attention_matrix,
    reweighted_attention_matrix,
)
from .matching import (
    NumericalError,
    dual_softmax,
    dual_softmax_reweighted,
    ot_reweighted,
    ot_uniform,
    sinkhorn,
)
from .sampling import (
    random_feature_set,
    run_attention_convergence,
    run_matching_convergence,
)
from .sparsity import (
    NMS,
    SparsityConfig,
    Threshold,
    TopK,
    pipeline_loss,
    random_matching_problem,
    random_score_head,
    score_head_forward,
    select_survivors,
    train_score_head,
)
from .transformer import random_transformer_spec

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "run",
    "main",
    "FORMAT_VERSION",
    "EXPERIMENTS",
]

FORMAT_VERSION = 1

# fixed sentinels separating the derived random streams of one root seed
_STREAM_ASSETS = 101
_STREAM_CASES = 102
_STREAM_INIT = 103
_STREAM_TRAIN = 104


class ConfigError(ValueError):
    """The configuration text is malformed or violates a documented range."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings; every field has a documented range."""

    experiment: str | None = None
    seed: int = 0
    sizes: tuple[int, ...] = (64, 256, 1024, 4096)
    trials: int | None = None
    d: int = 8
    heads: int = 2
    depth: int = 2
    n_points: int = 16
    grid: int = 32
    similarity: str = "softmax"
    tau: float = 1.0
    method: str = "ot"
    eps: float = 0.1
    alpha: float = 1.0
    iters: int = 200
    tol: float = 1e-9
    lam: float = 0.1
    rule: str = "topk"
    rule_t: float = 0.5
    rule_k: int = 8
    rule_radius: float = 4.0
    steps: int = 300

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        _, default_trials, _ = EXPERIMENTS[self.experiment or "attention-converge"]
        return default_trials

    def sim(self):
        if self.similarity == "softmax":
            return SoftmaxSim(self.tau)
        return LinearSim()

    def prune_rule(self):
        if self.rule == "threshold":
            return Threshold(self.rule_t)
        if self.rule == "topk":
            return TopK(self.rule_k)
        return NMS(self.rule_radius, self.rule_k)


def _coerce_int(key: str, raw, errors: list[str]) -> int | None:
    try:
        if isinstance(raw, bool):
            raise ValueError
        if isinstance(raw, int):
            return raw
        if isinstance(raw, float):
            if raw != int(raw):
                raise ValueError
            return int(raw)
        return int(str(raw).strip())
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{key}: expected an integer, got {raw!r}")
        return None


def _coerce_float(key: str, raw, errors: list[str]) -> float | None:
    try:
        if isinstance(raw, bool):
            raise ValueError
        val = float(raw if isinstance(raw, (int, float)) else str(raw).strip())
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{key}: expected a real number, got {raw!r}")
        return None
    if not np.isfinite(val):
        errors.append(f"{key}: must be finite, got {raw!r}")
        return None
    return val


def _coerce_sizes(key: str, raw, errors: list[str]) -> tuple[int, ...] | None:
    if isinstance(raw, str):
        parts = [p for p in raw.replace(",", " ").split() if p]
    elif isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        errors.append(f"{key}: expected a comma-separated list, got {raw!r}")
        return None
    out = []
    for p in parts:
        v = _coerce_int(key, p, errors)
        if v is None:
            return None
        out.append(v)
    return tuple(out)


# field annotation (a string under postponed evaluation) -> value parser
_COERCE = {
    "int": _coerce_int,
    "float": _coerce_float,
    "str": lambda key, raw, errors: str(raw).strip(),
    "tuple[int, ...]": _coerce_sizes,
}

# config key -> field; ``lambda`` is a Python keyword, so its field is ``lam``
_KEYS = {("lambda" if f.name == "lam" else f.name): f for f in fields(ExperimentConfig)}


def _validate(cfg: ExperimentConfig, errors: list[str]) -> ExperimentConfig:
    """Return cfg, or raise ConfigError listing ``errors`` and every range violation."""

    def check(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    check(
        cfg.experiment is None or cfg.experiment in EXPERIMENTS,
        f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {cfg.experiment!r}",
    )
    check(0 <= cfg.seed < 2**64, f"seed: must be in [0, 2^64), got {cfg.seed}")
    check(
        len(cfg.sizes) >= 1 and all(1 <= m <= 10**6 for m in cfg.sizes),
        f"sizes: entries must be in [1, 10^6], got {cfg.sizes}",
    )
    check(
        all(b > a for a, b in zip(cfg.sizes, cfg.sizes[1:])),
        f"sizes: must be strictly increasing, got {cfg.sizes}",
    )
    check(
        cfg.trials is None or 1 <= cfg.trials <= 10**6,
        f"trials: must be in [1, 10^6], got {cfg.trials}",
    )
    check(2 <= cfg.d <= 64, f"d: must be in [2, 64], got {cfg.d}")
    check(1 <= cfg.heads <= 8, f"heads: must be in [1, 8], got {cfg.heads}")
    if 2 <= cfg.d <= 64 and 1 <= cfg.heads <= 8:
        check(cfg.d % cfg.heads == 0, f"heads: must divide d, got d={cfg.d} heads={cfg.heads}")
    check(0 <= cfg.depth <= 8, f"depth: must be in [0, 8], got {cfg.depth}")
    check(2 <= cfg.n_points <= 64, f"n_points: must be in [2, 64], got {cfg.n_points}")
    check(4 <= cfg.grid <= 1024, f"grid: must be in [4, 1024], got {cfg.grid}")
    if 2 <= cfg.n_points <= 64 and 4 <= cfg.grid <= 1024:
        check(cfg.n_points <= cfg.grid**2, "n_points: must not exceed grid^2")
    check(
        cfg.similarity in ("softmax", "linear"),
        f"similarity: must be softmax or linear, got {cfg.similarity!r}",
    )
    check(cfg.tau > 0, f"tau: must be positive, got {cfg.tau}")
    check(
        cfg.method in ("ot", "dual-softmax"),
        f"method: must be ot or dual-softmax, got {cfg.method!r}",
    )
    check(0 < cfg.eps <= 10, f"eps: must be in (0, 10], got {cfg.eps}")
    check(abs(cfg.alpha) <= 100, f"alpha: must be in [-100, 100], got {cfg.alpha}")
    check(1 <= cfg.iters <= 10**5, f"iters: must be in [1, 10^5], got {cfg.iters}")
    check(0 <= cfg.tol <= 1, f"tol: must be in [0, 1], got {cfg.tol}")
    check(0 <= cfg.lam <= 1000, f"lambda: must be in [0, 1000], got {cfg.lam}")
    check(
        cfg.rule in ("threshold", "topk", "nms"),
        f"rule: must be threshold, topk, or nms, got {cfg.rule!r}",
    )
    check(0 < cfg.rule_t < 1, f"rule_t: must be in (0, 1), got {cfg.rule_t}")
    check(1 <= cfg.rule_k <= 10**4, f"rule_k: must be in [1, 10^4], got {cfg.rule_k}")
    check(cfg.rule_radius > 0, f"rule_radius: must be positive, got {cfg.rule_radius}")
    check(1 <= cfg.steps <= 10**5, f"steps: must be in [1, 10^5], got {cfg.steps}")
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def _entries_from_text(text: str, errors: list[str]) -> dict:
    if text.lstrip().startswith("{"):

        def unique_keys(pairs: list[tuple[str, object]]) -> dict:
            obj: dict = {}
            for key, value in pairs:
                if key in obj:
                    errors.append(f"duplicate key {key!r}")
                obj.setdefault(key, value)
            return obj

        try:
            # valid JSON text starting with '{' is always an object
            return json.loads(text, object_pairs_hook=unique_keys)
        # ValueError also covers an integer past Python's digit limit
        except (ValueError, RecursionError) as exc:
            errors.append(f"malformed JSON: {exc}")
            return {}
    entries: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {raw_line.strip()!r}")
            continue
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        entries[key] = value
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text (key=value lines or a JSON object).

    Raises ConfigError listing every unknown key, malformed value, and
    out-of-range field at once.  Missing keys take the documented defaults.
    """
    errors: list[str] = []
    values: dict = {}
    for key, raw in _entries_from_text(text, errors).items():
        f = _KEYS.get(key)
        if f is None:
            errors.append(f"unknown key {key!r}")
            continue
        val = _COERCE[f.type.removesuffix(" | None")](key, raw, errors)
        if val is not None:
            values[f.name] = val
    # validate whatever coerced cleanly so one parse reports every problem
    return _validate(ExperimentConfig(**values), errors)


def _config_items(cfg: ExperimentConfig) -> list[tuple[str, object]]:
    """(key, value) of every set field, sorted by key; both report formats use it."""
    values = ((key, getattr(cfg, f.name)) for key, f in _KEYS.items())
    return sorted((key, value) for key, value in values if value is not None)


def _config_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical key=value text; parsing it reproduces the config exactly."""
    return "".join(f"{k}={_config_text(v)}\n" for k, v in _config_items(cfg))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(cfg: ExperimentConfig, rows: list[dict]) -> str:
    # every runner builds its row dicts in report-column order
    config_line = " ".join(f"{k}={_config_text(v)}" for k, v in _config_items(cfg))
    lines = [
        f"# format-version: {FORMAT_VERSION}",
        f"# config: {config_line}",
        ",".join(rows[0]),
    ]
    lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(cfg: ExperimentConfig, rows: list[dict]) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "config": dict(_config_items(cfg)),
        "rows": rows,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _assets(cfg: ExperimentConfig):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_ASSETS]))
    set_a = random_feature_set(rng, n_points=cfg.n_points, grid=float(cfg.grid))
    set_b = random_feature_set(rng, n_points=cfg.n_points, grid=float(cfg.grid))
    spec = random_transformer_spec(
        rng, d=cfg.d, n_heads=cfg.heads, depth=cfg.depth, sim=cfg.sim()
    )
    return set_a, set_b, spec


def _converge_passed(rows: list[dict]) -> bool:
    # the factor-2 endpoint criterion needs at least two sizes; a single-size
    # run is a smoke run and passes by construction
    if len(rows) < 2:
        return True
    medians = [row["q50"] for row in rows]
    non_increasing = all(b <= a for a, b in zip(medians, medians[1:]))
    return non_increasing and medians[-1] <= medians[0] / 2.0


def _run_attention_converge(cfg: ExperimentConfig) -> tuple[list[dict], bool]:
    set_a, set_b, spec = _assets(cfg)
    report = run_attention_convergence(
        spec, set_a, set_b, cfg.sizes, cfg.resolved_trials(), cfg.seed
    )
    rows = report.rows()
    return rows, _converge_passed(rows)


def _run_matching_converge(cfg: ExperimentConfig) -> tuple[list[dict], bool]:
    set_a, set_b, spec = _assets(cfg)
    report = run_matching_convergence(
        spec, set_a, set_b, cfg.sizes, cfg.resolved_trials(), cfg.seed,
        method=cfg.method, alpha=cfg.alpha, eps=cfg.eps,
        max_iters=cfg.iters, tol=cfg.tol,
    )
    rows = report.rows()
    return rows, _converge_passed(rows)


def _case_streams(cfg: ExperimentConfig):
    """One independent generator per case: the CLI's stream of check cases."""
    for case in range(cfg.resolved_trials()):
        yield np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_CASES, case]))


def _sinkhorn_check(cfg: ExperimentConfig, rngs) -> tuple[list[dict], bool]:
    """Random augmented problems with a bounded log-kernel range, one per
    generator in ``rngs``.

    Entropic scaling converges at a rate governed by the spread of sbar/eps,
    so the suite draws that spread uniformly from [-4, 4] and sweeps eps
    through [0.05, 1]; this exercises the solver arithmetic across the eps
    range at controlled conditioning instead of conflating slow problem
    instances with solver defects.
    """
    rows = []
    for case, rng in enumerate(rngs):
        n_a = int(rng.integers(2, 65))
        n_b = int(rng.integers(2, 65))
        eps = float(rng.uniform(0.05, 1.0))
        logits = rng.uniform(-4.0, 4.0, size=(n_a + 1, n_b + 1))
        a = np.concatenate([rng.dirichlet(np.ones(n_a)), [1.0]])
        b = np.concatenate([rng.dirichlet(np.ones(n_b)), [1.0]])
        result = sinkhorn(eps * logits, a, b, eps, max_iters=cfg.iters, tol=cfg.tol)
        rows.append(
            {
                "experiment": cfg.experiment,
                "case": case,
                "n_a": n_a,
                "n_b": n_b,
                "eps": eps,
                "iterations": result.iterations,
                "residual": result.residual,
                "mass_error": abs(float(result.plan.sum()) - 2.0),
                "seed": cfg.seed,
            }
        )
    passed = all(
        row["residual"] <= cfg.tol and row["mass_error"] <= 2.0 * cfg.tol for row in rows
    )
    return rows, passed


def _reduce_check(cfg: ExperimentConfig, rngs) -> tuple[list[dict], bool]:
    """Uniform weights must reproduce the unweighted operations, one instance
    per generator in ``rngs``.

    Attention and dual-softmax deviations are entrywise; transport is checked
    for bitwise plan equality (ot_uniform and ot_reweighted with uniform
    probabilities build identical marginals) on every tenth instance, since
    one deviation bound covers both flavors of each instance family.
    """
    sims = {"attention-softmax": SoftmaxSim(cfg.tau), "attention-linear": LinearSim()}
    dev = dict.fromkeys([*sims, "dual-softmax"], 0.0)
    ot_kw = dict(alpha=cfg.alpha, eps=cfg.eps, max_iters=cfg.iters, tol=cfg.tol)
    instances = ot_instances = ot_mismatches = 0
    for rng in rngs:
        d = int(rng.integers(2, 17))
        n_k = int(rng.integers(2, 33))
        n_q = int(rng.integers(2, 33))
        keys = rng.standard_normal((d, n_k))
        queries = rng.standard_normal((d, n_q))
        w_k = ProbabilityWeights.uniform(n_k)
        w_q = ProbabilityWeights.uniform(n_q)
        for kind, sim in sims.items():
            plain = attention_matrix(keys, queries, sim)
            rw = reweighted_attention_matrix(keys, queries, sim, w_k)
            dev[kind] = max(dev[kind], float(np.abs(plain - rw).max()))
        scores = rng.standard_normal((n_k, n_q))
        ds_dev = np.abs(dual_softmax(scores) - dual_softmax_reweighted(scores, w_k, w_q))
        dev["dual-softmax"] = max(dev["dual-softmax"], float(ds_dev.max()))
        if instances % 10 == 0:
            ot_instances += 1
            tok_a = 0.5 * keys / np.sqrt(d)
            tok_b = 0.5 * queries / np.sqrt(d)
            plan_u = ot_uniform(tok_a, tok_b, **ot_kw).plan
            plan_r = ot_reweighted(tok_a, tok_b, w_k, w_q, **ot_kw).plan
            ot_mismatches += not np.array_equal(plan_u, plan_r)
        instances += 1
    rows = [
        {
            "experiment": cfg.experiment,
            "kind": kind,
            "instances": count,
            "max_deviation": value,
            "threshold": thr,
            "seed": cfg.seed,
        }
        for kind, count, value, thr in (
            *((kind, instances, value, 1e-12) for kind, value in dev.items()),
            ("ot-plan-bitwise", ot_instances, float(ot_mismatches), 0.0),
        )
    ]
    passed = all(row["max_deviation"] <= row["threshold"] for row in rows)
    return rows, passed


def _run_sparsify(cfg: ExperimentConfig) -> tuple[list[dict], bool]:
    asset_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_ASSETS]))
    set_a, set_b, gt = random_matching_problem(
        asset_rng, n_points=cfg.n_points, grid=float(cfg.grid)
    )
    spec = random_transformer_spec(
        asset_rng, d=cfg.d, n_heads=cfg.heads, depth=cfg.depth, sim=cfg.sim()
    )
    rule = cfg.prune_rule()
    sparsity_cfg = SparsityConfig(lam=cfg.lam, rule=rule)
    loss_kw = dict(alpha=cfg.alpha, eps=cfg.eps, max_iters=cfg.iters, tol=cfg.tol)
    rows = []
    for trial in range(cfg.resolved_trials()):
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_INIT, trial]))
        init = random_score_head(init_rng, d_desc=set_a.descriptors.shape[0])
        train_seed = int(
            np.random.SeedSequence([cfg.seed, _STREAM_TRAIN, trial]).generate_state(1)[0]
        )
        loss_initial, _, l1_initial = pipeline_loss(
            init, spec, set_a, set_b, gt, cfg.lam, **loss_kw
        )
        trained, _ = train_score_head(
            init, spec, set_a, set_b, gt, sparsity_cfg, cfg.steps, train_seed,
            ot_alpha=cfg.alpha, ot_eps=cfg.eps, ot_max_iters=cfg.iters, ot_tol=cfg.tol,
        )
        loss_final, _, l1_final = pipeline_loss(trained, spec, set_a, set_b, gt, cfg.lam, **loss_kw)
        scores_a = score_head_forward(trained, set_a)
        scores_b = score_head_forward(trained, set_b)
        rows.append(
            {
                "experiment": cfg.experiment,
                "lambda": cfg.lam,
                "rule": cfg.rule,
                "steps": cfg.steps,
                "trial": trial,
                "l1_initial": float(l1_initial),
                "l1_final": float(l1_final),
                "loss_initial": float(loss_initial),
                "loss_final": float(loss_final),
                "survivors_a": int(select_survivors(scores_a, rule, set_a.coords).size),
                "survivors_b": int(select_survivors(scores_b, rule, set_b.coords).size),
                "seed": cfg.seed,
            }
        )
    return rows, True


# experiment kind -> (subcommand, default trials, runner); the checks run on
# the CLI's case streams, while the acceptance suite feeds them its own
EXPERIMENTS = {
    "attention-converge": ("converge-attn", 200, _run_attention_converge),
    "matching-converge": ("converge-match", 200, _run_matching_converge),
    "sinkhorn-check": ("sinkhorn-check", 500, lambda c: _sinkhorn_check(c, _case_streams(c))),
    "reduce-check": ("reduce-check", 1000, lambda c: _reduce_check(c, _case_streams(c))),
    "sparsify": ("sparsify", 5, _run_sparsify),
}


def run(cfg: ExperimentConfig, out_dir: str = ".", fmt: str = "csv") -> int:
    """Validate and run one experiment and write its report; returns the
    process exit code.

    The report lands at ``<out_dir>/<experiment>.<fmt>``.  Identical config
    and seed produce byte-identical report files.
    """
    try:
        _validate(cfg, [])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    if cfg.experiment not in EXPERIMENTS:
        print(f"error: no experiment selected (got {cfg.experiment!r})", file=sys.stderr)
        return 3
    if fmt not in ("csv", "json"):
        print(f"error: format must be csv or json, got {fmt!r}", file=sys.stderr)
        return 3
    _, _, runner = EXPERIMENTS[cfg.experiment]
    try:
        rows, passed = runner(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    text = _render_csv(cfg, rows) if fmt == "csv" else _render_json(cfg, rows)
    path = os.path.join(out_dir, f"{cfg.experiment}.{fmt}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    status = "pass" if passed else "fail"
    print(f"{cfg.experiment}: {status}, report written to {path}")
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; exit 2 means numerical failure here,
    so remap usage problems to the configuration-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rwmatch",
        description="seeded experiments for reweighted attention and matching",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for kind, (name, _, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.set_defaults(kind=kind)
        p.add_argument("--config", metavar="PATH", help="config file (key=value lines or JSON)")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--out", default=".", metavar="DIR", help="report directory")
        p.add_argument("--format", default="csv", choices=("csv", "json"), help="report format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 3
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    if cfg.experiment not in (None, args.kind):
        print(
            f"config error: experiment {cfg.experiment!r} does not match "
            f"subcommand {args.subcommand!r}",
            file=sys.stderr,
        )
        return 3
    seed = cfg.seed if args.seed is None else args.seed
    # run() validates again, so a --seed out of range fails like a config seed
    return run(replace(cfg, experiment=args.kind, seed=seed), out_dir=args.out, fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
