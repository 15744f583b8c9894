"""Config-driven experiment runner with deterministic JSON/CSV output.

Subcommands: ``detect`` (event criterion over a frame), ``trajectory``
(seeded stochastic trajectories with an outcome histogram), ``lsw``
(sequential history probability, optionally with a consistency audit) and
``mesoscopic`` (mixture-statistics pipeline: band masses, posterior
sharpening, decay exponents, detection time scale).

Exit codes: 0 success, 1 configuration error, 2 numerical-invariant
failure, 3 no event detected up to the frame horizon.  Output depends only
on the config and the seed, byte for byte; nothing is written when the
configuration is rejected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Callable

import numpy as np

from .algebras import FiniteAlgebra, diagonal_algebra
from .errors import InvariantViolation
from .events import HeisenbergFrame, detect_event, earliest_event, sample_trajectories
from .histories import MeasurementProtocol, consistency_check, lsw_probability
from .mesoscopic import (CLASSIFICATION_EXPONENT, DECAY_EXPONENT, LN2,
                         ClassificationBand, DeFinettiModel, born_rule_experiments,
                         detection_time, log_band_masses, posterior_entropies,
                         relative_entropy)
from .operators import DensityState, PartitionOfUnity

SCHEMA = "qevents-config/1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NO_EVENT = 3


class ConfigError(Exception):
    """The configuration (file, schema, or field values) is unusable."""


# ---------------------------------------------------------------------------
# config parsing

def _get(cfg: dict, key: str, ctx: str, required: bool = True, default=None):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return default


def _matrix(obj, ctx: str) -> np.ndarray:
    """Accept nested lists of reals, {'re':…,'im':…}, or {'diag': […]}."""
    if isinstance(obj, dict):
        if "diag" in obj:
            d = np.asarray(obj["diag"], dtype=float)
            if d.ndim != 1:
                raise ConfigError(f"{ctx}: 'diag' must be a flat list")
            return np.diag(d).astype(complex)
        if "re" in obj:
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
            if re.shape != im.shape:
                raise ConfigError(f"{ctx}: 're' and 'im' shapes differ")
            M = re + 1j * im
        else:
            raise ConfigError(f"{ctx}: matrix object needs 'diag' or 're'/'im'")
    else:
        try:
            M = np.asarray(obj, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{ctx}: not a numeric matrix ({exc})") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{ctx}: expected a square matrix, got shape {M.shape}")
    return M


def _partition(obj, dim: int, ctx: str) -> PartitionOfUnity:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: a partition must be an object")
    if "diagonal_labels" in obj:
        labels_per_index = obj["diagonal_labels"]
        if len(labels_per_index) != dim:
            raise ConfigError(f"{ctx}: 'diagonal_labels' needs one label per basis index "
                              f"({dim}), got {len(labels_per_index)}")
        order, projs = [], {}
        for i, lab in enumerate(labels_per_index):
            lab = _label(lab)
            if lab not in projs:
                order.append(lab)
                projs[lab] = np.zeros((dim, dim), dtype=complex)
            projs[lab][i, i] = 1.0
        return PartitionOfUnity(tuple(order), tuple(projs[l] for l in order))
    if "labels" in obj and "projections" in obj:
        labels = tuple(_label(l) for l in obj["labels"])
        mats = tuple(_matrix(m, f"{ctx}.projections[{k}]")
                     for k, m in enumerate(obj["projections"]))
        return PartitionOfUnity(labels, mats)
    raise ConfigError(f"{ctx}: partition needs 'diagonal_labels' or 'labels'+'projections'")


def _number(value, ctx: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``ctx`` when value is not a number.

    An ``int`` field refuses booleans and non-integral numbers rather than
    truncating them; an integral float such as 1e5 is accepted.
    """
    if kind is int and (isinstance(value, bool)
                        or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{ctx} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{ctx} must be a number, got {value!r}") from None


def _label(obj):
    if isinstance(obj, (str, int, bool)):
        return obj
    raise ConfigError(f"labels must be strings or integers, got {obj!r}")


def _restriction(obj, diagonal: Callable[[], FiniteAlgebra], ctx: str) -> FiniteAlgebra | None:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{ctx}: a restriction must be an object with 'kind'")
    kind = obj["kind"]
    if kind == "full":
        return None
    if kind == "diagonal":
        return diagonal()
    if kind == "span":
        basis = [_matrix(m, f"{ctx}.basis[{k}]") for k, m in enumerate(obj.get("basis", []))]
        if not basis:
            raise ConfigError(f"{ctx}: 'span' restriction needs a nonempty 'basis'")
        try:
            return FiniteAlgebra.from_span(basis)
        except (ValueError, InvariantViolation) as exc:
            raise ConfigError(f"{ctx}: basis does not span an algebra ({exc})") from None
    raise ConfigError(f"{ctx}: unknown restriction kind {kind!r}")


def _build_frame(model: dict) -> tuple[HeisenbergFrame, DensityState]:
    ctx = "model"
    times = _get(model, "times", ctx)
    state_obj = _get(model, "initial_state", ctx)
    try:
        initial = DensityState(_matrix(state_obj, f"{ctx}.initial_state"))
    except InvariantViolation as exc:
        raise ConfigError(f"{ctx}.initial_state: {exc}") from None
    dim = initial.dim

    kwargs = {}
    if "step_propagator" in model:
        kwargs["step_propagator"] = _matrix(model["step_propagator"], f"{ctx}.step_propagator")
    elif "propagators" in model:
        kwargs["propagators"] = [_matrix(m, f"{ctx}.propagators[{k}]")
                                 for k, m in enumerate(model["propagators"])]

    if "base_partitions" in model:
        raw = model["base_partitions"]
        if isinstance(raw, dict):
            raw = [raw]
        partitions = [_partition(p, dim, f"{ctx}.base_partitions[{k}]")
                      for k, p in enumerate(raw)]
    elif "partitions" in model:
        raw = model["partitions"]
        if isinstance(raw, dict):
            partitions = [(_partition(raw, dim, f"{ctx}.partitions"),)] * len(times)
        else:
            partitions = []
            for k, entry in enumerate(raw):
                if isinstance(entry, dict):
                    entry = [entry]
                partitions.append(tuple(_partition(p, dim, f"{ctx}.partitions[{k}]")
                                        for p in entry))
    else:
        raise ConfigError(f"{ctx}: needs 'partitions' or 'base_partitions'")

    if "restrictions" in model:
        raw = model["restrictions"]
        if not isinstance(raw, list) or len(raw) != len(times):
            raise ConfigError(f"{ctx}.restrictions: needs one entry per time")
        # one algebra for all "diagonal" entries: the frame skips checking it
        # inside itself, and a state's centralizer report serves all its times
        diagonal = functools.cache(lambda: diagonal_algebra(dim))
        kwargs["restrictions"] = [_restriction(r, diagonal, f"{ctx}.restrictions[{k}]")
                                  for k, r in enumerate(raw)]

    try:
        frame = HeisenbergFrame.build(times, partitions, dim=dim, **kwargs)
    except (ValueError, InvariantViolation) as exc:
        raise ConfigError(f"{ctx}: cannot assemble frame ({exc})") from None
    return frame, initial


def _build_mixture(model: dict) -> DeFinettiModel:
    try:
        return DeFinettiModel(np.asarray(_get(model, "weights", "model"), dtype=float),
                              np.asarray(_get(model, "p_plus", "model"), dtype=float),
                              float(model.get("tau", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: invalid mixture ({exc})") from None


def _load_config(path: str, expect_kind: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    if cfg.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}, got {cfg.get('schema')!r}")
    model = _get(cfg, "model", "config")
    if not isinstance(model, dict):
        raise ConfigError("config: 'model' must be an object")
    kind = model.get("kind")
    if kind != expect_kind:
        raise ConfigError(f"this command needs a model of kind {expect_kind!r}, got {kind!r}")
    run = cfg.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("config: 'run' must be an object")
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("config: 'output' must be an object")
    return cfg


# ---------------------------------------------------------------------------
# deterministic serialization

def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _to_json(payload: dict) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return "%.12g" % f if math.isfinite(f) else ""
    return str(v)


def _to_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands: each returns (payload, columns, rows, exit_code)

def cmd_detect(cfg: dict, seed: int):
    frame, initial = _build_frame(cfg["model"])
    run = cfg.get("run", {})
    safety = _number(run.get("safety", 0.5), "run.safety")

    if "time" in run:
        k = frame.index_of(_number(run["time"], "run.time"))
        verdicts = [[detect_event(frame, initial, frame.times[k], p, safety=safety)
                     for p in frame.partitions[k]]]
        happened = any(v.happened for v in verdicts[0])
        t_min = frame.times[k] if happened else None
        t_star = t_min
    else:
        report = earliest_event(frame, initial, safety=safety)
        verdicts = report.verdicts
        happened, t_min, t_star = report.happened, report.t_min, report.t_star

    rows = []
    for row in verdicts:
        for c, v in enumerate(row):
            rows.append({
                "time": v.time, "candidate": c, "happened": v.happened,
                "distance": v.distance,
                "threshold": None if math.isnan(v.threshold) else v.threshold,
                "gap": v.gap, "admissible": v.admissible,
            })
    payload = {
        "schema": SCHEMA, "command": "detect", "seed": seed, "safety": safety,
        "happened": happened, "t_min": t_min, "t_star": t_star,
        "verdicts": rows,
    }
    columns = ["time", "candidate", "happened", "distance", "threshold", "gap", "admissible"]
    return payload, columns, rows, (EXIT_OK if happened else EXIT_NO_EVENT)


def cmd_trajectory(cfg: dict, seed: int):
    frame, initial = _build_frame(cfg["model"])
    run = cfg.get("run", {})
    samples = _number(run.get("samples", 1), "run.samples", int)
    if samples < 1:
        raise ConfigError("run.samples must be at least 1")
    policy = run.get("record_policy", "always")
    if policy not in ("always", "never"):
        raise ConfigError(f"run.record_policy must be 'always' or 'never', got {policy!r}")
    safety = _number(run.get("safety", 0.5), "run.safety")
    require_detection = run.get("require_detection", True)
    if not isinstance(require_detection, bool):
        raise ConfigError(f"run.require_detection must be true or false, got {require_detection!r}")
    keep = _number(run.get("keep_histories", 10), "run.keep_histories", int)
    if keep < 0:
        raise ConfigError(f"run.keep_histories must be at least 0, got {keep!r}")

    counts: dict = {}
    first: dict = {}        # outcome -> (sample, event index) where it first occurs
    events_total = 0
    kept: dict = {}
    for path in sample_trajectories(frame, initial, samples, seed, safety=safety,
                                    record_policy=policy,
                                    require_detection=require_detection):
        n, lead = path.members.size, int(path.members[0])
        for e, label in enumerate(path.outcomes):
            counts[label] = counts.get(label, 0) + n
            first[label] = min(first.get(label, (lead, e)), (lead, e))
        events_total += len(path.outcomes) * n
        # records are built only for the paths of kept samples
        for i in path.members[:np.searchsorted(path.members, keep)].tolist():
            kept[i] = [{"time": r.time, "outcome": r.outcome,
                        "probability": r.probability, "recorded": r.recorded}
                       for r in path.history]

    # labels whose str() ties keep the order of their first occurrence, as
    # in a sample-by-sample tally
    hist_rows = [{"outcome": lab, "count": c,
                  "fraction": c / events_total if events_total else None}
                 for lab, c in sorted(counts.items(), key=lambda kv: (str(kv[0]), first[kv[0]]))]
    payload = {
        "schema": SCHEMA, "command": "trajectory", "seed": seed,
        "samples": samples, "record_policy": policy,
        "require_detection": require_detection,
        "events_total": events_total, "histogram": hist_rows,
        "histories": [kept[i] for i in sorted(kept)],
    }
    return payload, ["outcome", "count", "fraction"], hist_rows, EXIT_OK


def cmd_lsw(cfg: dict, seed: int, check_consistency: bool):
    frame, initial = _build_frame(cfg["model"])
    run = cfg.get("run", {})
    raw = _get(run, "protocol", "run")
    if isinstance(raw, dict):
        outcomes = [_label(l) for l in _get(raw, "outcomes", "run.protocol")]
        times = [_number(t, "run.protocol.times") for t in _get(raw, "times", "run.protocol")]
    else:
        outcomes = [_label(l) for l in raw]
        times = list(frame.times[:len(outcomes)])
    if len(times) != len(outcomes):
        raise ConfigError("run.protocol: outcomes and times must have equal length")
    try:
        protocol = MeasurementProtocol(tuple(outcomes), tuple(times))
        probability = lsw_probability(frame, initial, protocol)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"run.protocol: {exc}") from None

    payload = {
        "schema": SCHEMA, "command": "lsw", "seed": seed,
        "protocol": {"outcomes": outcomes, "times": times},
        "probability": probability,
    }
    if check_consistency:
        steps = _number(run.get("steps", len(frame.times)), "run.steps", int)
        report = consistency_check(frame, initial, steps)
        payload["consistency"] = {
            "steps": report.steps, "leaves": report.leaves,
            "max_marginal_residual": report.max_marginal_residual,
            "normalization_residual": report.normalization_residual,
        }
    rows = [{"steps": len(outcomes), "probability": probability}]
    return payload, ["steps", "probability"], rows, EXIT_OK


def cmd_mesoscopic(cfg: dict, seed: int):
    model = _build_mixture(cfg["model"])
    run = cfg.get("run", {})
    n_values = run.get("n_values", [50, 200, 500])
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("run.n_values must be a nonempty list")
    n_values = [_number(n, "run.n_values", int) for n in n_values]
    count = _number(run.get("count", 0), "run.count", int)
    if count < 0:
        raise ConfigError("run.count must be nonnegative")
    cls_exp = _number(run.get("classification_exponent", CLASSIFICATION_EXPONENT),
                      "run.classification_exponent")
    threshold = _number(run.get("calibration_threshold", math.exp(-1.0)),
                        "run.calibration_threshold")
    decay_exp = _number(run.get("decay_exponent", DECAY_EXPONENT), "run.decay_exponent")

    try:
        dt = detection_time(model, threshold=threshold, exponent=decay_exp)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    bands = []
    for n in n_values:
        try:
            bands.append(ClassificationBand.from_schedule(n, cls_exp))
        except ValueError as exc:
            raise ConfigError(f"run.n_values: n={n} unusable ({exc})") from None
    H = model.num_hypotheses
    rows = []
    for exp in born_rule_experiments(model, bands, count, seed):
        n = exp.band.n
        log_cross = log_band_masses(n, exp.band.epsilon, model.p_plus, model.p_plus)
        entropy_by_nu: dict[int, float | None] = {nu: None for nu in range(H)}
        if count:
            ents = posterior_entropies(model, exp.sample)
            for nu in range(H):
                mask = exp.sample.latent == nu
                if mask.any():
                    entropy_by_nu[nu] = float(ents[mask].mean())
        for nu in range(H):
            others = [j for j in range(H) if j != nu]
            cross = max((math.exp(log_cross[nu][j]) for j in others), default=None)
            rows.append({
                "n": n, "nu": nu, "epsilon": exp.band.epsilon, "count": count,
                "empirical_mass": None if exp.empirical is None else exp.empirical[nu],
                "exact_mass": exp.exact_mass[nu],
                "coverage": exp.coverage, "exact_coverage": exp.exact_coverage,
                "mean_posterior_entropy_bits": entropy_by_nu[nu],
                "cross_mass": cross,
                # cross <= 1, so abs() is the negation, except that a mass of
                # exactly 1 gives a rate of 0.0 rather than -0.0
                "cross_rate_nats": (None if cross is None or cross <= 0.0
                                    else abs(math.log(cross)) / n),
                "sigma_min_rate_nats": (min(relative_entropy(model, nu, j)
                                            for j in others) * LN2 if others else None),
            })

    summary = {
        "kappa": model.kappa, "tau": model.tau, "hypotheses": H,
        "sigma_bits": [{"nu1": r.nu1, "nu2": r.nu2, "value": r.sigma_bits}
                       for r in dt.pairs],
        "sigma_min_bits": dt.sigma_min_bits, "time_scale": dt.time_scale,
        "n_star": dt.n_star, "n_star_epsilon": dt.n_star_epsilon,
        "n_star_mass": dt.n_star_mass, "calibration_threshold": dt.threshold,
        "calibration_product_nats": dt.n_star * dt.sigma_min_bits * LN2,
    }
    payload = {"schema": SCHEMA, "command": "mesoscopic", "seed": seed,
               "count": count, "summary": summary, "rows": rows}
    columns = ["n", "nu", "epsilon", "count", "empirical_mass", "exact_mass",
               "coverage", "exact_coverage", "mean_posterior_entropy_bits",
               "cross_mass", "cross_rate_nats", "sigma_min_rate_nats"]
    return payload, columns, rows, EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qevents", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("detect", "apply the event criterion to a frame"),
                           ("trajectory", "sample seeded stochastic trajectories"),
                           ("lsw", "evaluate a sequential history probability"),
                           ("mesoscopic", "mixture statistics and detection time")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config (default 0)")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default json)")
        if name == "lsw":
            p.add_argument("--check-consistency", action="store_true",
                           help="audit prefix marginals and normalization")
    return parser


_MODEL_KINDS = {"detect": "frame", "trajectory": "frame",
                "lsw": "frame", "mesoscopic": "mixture"}


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        cfg = _load_config(args.config, _MODEL_KINDS[args.command])
        run = cfg.get("run", {})
        output = cfg.get("output", {})
        seed = (args.seed if args.seed is not None
                else _number(run.get("seed", 0), "run.seed", int))
        fmt = args.format or output.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output.format must be 'json' or 'csv', got {fmt!r}")
        out_path = args.out or output.get("path")

        if args.command == "detect":
            payload, columns, rows, code = cmd_detect(cfg, seed)
        elif args.command == "trajectory":
            payload, columns, rows, code = cmd_trajectory(cfg, seed)
        elif args.command == "lsw":
            payload, columns, rows, code = cmd_lsw(cfg, seed, args.check_consistency)
        else:
            payload, columns, rows, code = cmd_mesoscopic(cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"numerical invariant failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = _to_csv(columns, rows) if fmt == "csv" else _to_json(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        if fmt == "csv" and args.command == "mesoscopic":
            # the summary has no natural place in the table; keep it visible
            sys.stdout.write(_to_json({"summary": payload["summary"]}))
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
