"""Config-driven experiment runners with seeded, schedule-independent output.

Every replicate draws its random stream from
``SeedSequence([seed, KIND_CODE, stream..., n, replicate])``, so results are
identical whether replicates run serially or across a worker pool, and CSV
outputs are byte-stable for a fixed (config, seed).  Plots are rendered from
the written CSV files only.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_lattice
from .data import RegressionDataset
from .errors import ConfigError, DataError, LatticeError
from .ingest import ingest
from .invariance import gaussian_noise, known_bound, order_bound
from .plotting import Series, write_svg
from .regression import fit_lce, mspe, symmetrized_estimator
from .scenarios import make_scenario, quarter_turn_actions
from .search import (
    ExceedanceTester,
    OracleTester,
    PermutationTester,
    SearchConfig,
    run_search,
    write_hasse_annotation,
    write_result_csv,
)

_KIND_CODE = {"power-curve": 1, "group-recovery": 2, "estimator-compare": 3, "search": 4}
_TEST_CODE = {"exceedance": 0, "permutation": 1}
_HYP_CODE = {"non-invariant": 0, "invariant": 1}

_SERIES_COLORS = ("black", "blue", "red", "green", "orange", "purple")


def _rng_for(cfg: ExperimentConfig, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _KIND_CODE[cfg.kind], *stream]))


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63 - 1))


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _write_csv(path, header, rows) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])


def _noise_sigma(cfg: ExperimentConfig, scenario) -> float:
    return scenario.noise_sigma if cfg.test.noise_sigma is None else cfg.test.noise_sigma


def _exceedance_thresholds(cfg: ExperimentConfig, noise):
    if cfg.test.thresholds is not None:
        return np.asarray(cfg.test.thresholds, dtype=float)
    return noise.default_thresholds(cfg.test.grid_size)


def _tester(cfg: ExperimentConfig, test_name: str, data: RegressionDataset, noise,
            thresholds=None):
    """The configured invariance test bound to ``data``.  The exceedance test
    builds its threshold grid unless the caller shares one across testers."""
    if test_name == "permutation":
        return PermutationTester(data, order_bound(cfg.test.exponent),
                                 m=cfg.test.perm_m_for(data.n), B=cfg.test.B, q=cfg.test.q)
    if thresholds is None:
        thresholds = _exceedance_thresholds(cfg, noise)
    return ExceedanceTester(data, known_bound(cfg.test.lipschitz, cfg.test.exponent),
                            noise, m=cfg.test.m_for(data.n), thresholds=thresholds)


def _search_config(cfg: ExperimentConfig, seed: int) -> SearchConfig:
    return SearchConfig(algorithm=cfg.search.algorithm, alpha=cfg.test.alpha,
                        tie_rule=cfg.search.tie_rule, seed=seed)


# ---------------------------------------------------------------------------
# Power curve
# ---------------------------------------------------------------------------

def _power_task(args) -> bool:
    cfg, action, sampler, test_name, hyp, n, rep = args
    rng = _rng_for(cfg, _TEST_CODE[test_name], _HYP_CODE[hyp], n, rep)
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    data = scenario.sample_train(rng, n)
    tester = _tester(cfg, test_name, data, gaussian_noise(_noise_sigma(cfg, scenario)))
    return tester.test(action, sampler, cfg.test.alpha, rng).rejected


def run_power_curve(cfg: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    """Rejection rates of both tests under the rotation (power) and half-turn
    (size) actions, per sample size."""
    out_dir = Path(out_dir)
    if cfg.scenario_id != "fd-rotation":
        raise ConfigError("power-curve needs the fd-rotation scenario "
                          "(it defines both an invariant and a non-invariant action)")
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    rotation, half_turn, sampler = quarter_turn_actions(scenario.dim)
    actions = {"non-invariant": rotation, "invariant": half_turn}
    rows = []
    for test_name in cfg.test.types:
        for hyp in ("non-invariant", "invariant"):
            for n in cfg.sample_sizes:
                tasks = [(cfg, actions[hyp], sampler, test_name, hyp, n, rep)
                         for rep in range(cfg.replicates)]
                rejected = _run_tasks(_power_task, tasks, cfg.jobs)
                rate = sum(rejected) / cfg.replicates
                rows.append([test_name, hyp, n, float(rate), cfg.replicates])
    csv_path = out_dir / "power_curve.csv"
    _write_csv(csv_path, ["test", "hypothesis", "n", "rejection_rate", "replicates"], rows)
    paths = {"csv": csv_path}
    if cfg.fmt in ("svg", "both"):
        svg_path = out_dir / "power_curve.svg"
        plot_power_curve(csv_path, svg_path, cfg.test.alpha)
        paths["svg"] = svg_path
    return paths


def plot_power_curve(csv_path, svg_path, alpha: float) -> None:
    """Power as filled markers, empirical size hollow, alpha as a dashed line."""
    rows = _read_csv(csv_path)
    series = []
    markers = {"exceedance": "square", "permutation": "triangle"}
    for test_name in sorted({r["test"] for r in rows}, reverse=False):
        for hyp in ("non-invariant", "invariant"):
            pts = [(float(r["n"]), float(r["rejection_rate"])) for r in rows
                   if r["test"] == test_name and r["hypothesis"] == hyp]
            if not pts:
                continue
            pts.sort()
            series.append(Series(
                label=f"{test_name} {'power' if hyp == 'non-invariant' else 'size'}",
                x=tuple(p[0] for p in pts), y=tuple(p[1] for p in pts),
                marker=markers[test_name], filled=(hyp == "non-invariant"),
                color="black" if test_name == "exceedance" else "blue"))
    write_svg(svg_path, series, xlabel="n", ylabel="rejection rate",
              title="rejection rates", hlines=(alpha,))


# ---------------------------------------------------------------------------
# Group recovery
# ---------------------------------------------------------------------------

def _recovery_task(args) -> int:
    cfg, lattice, test_name, n, rep = args
    rng = _rng_for(cfg, _TEST_CODE[test_name], n, rep)
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    data = scenario.sample_train(rng, n)
    tester = _tester(cfg, test_name, data, gaussian_noise(_noise_sigma(cfg, scenario)))
    return run_search(lattice, tester, _search_config(cfg, _child_seed(rng))).estimate


def run_group_recovery(cfg: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    """Proportion of replicates estimating each lattice node, per sample size."""
    out_dir = Path(out_dir)
    lattice = build_lattice(cfg.lattice)
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    if lattice.action.dim != scenario.dim:
        raise ConfigError(f"lattice dimension {lattice.action.dim} does not match "
                          f"scenario dimension {scenario.dim}")
    labels = [node.label for node in lattice.nodes]
    rows = []
    for test_name in cfg.test.types:
        for n in cfg.sample_sizes:
            tasks = [(cfg, lattice, test_name, n, rep) for rep in range(cfg.replicates)]
            estimates = _run_tasks(_recovery_task, tasks, cfg.jobs)
            counts = np.bincount(estimates, minlength=len(labels))
            rows.append([test_name, n] +
                        [float(c / cfg.replicates) for c in counts])
    csv_path = out_dir / "group_recovery.csv"
    _write_csv(csv_path, ["test", "n"] + [f"prop_{lbl}" for lbl in labels], rows)
    paths = {"csv": csv_path}
    if cfg.fmt in ("svg", "both"):
        svg_path = out_dir / "group_recovery.svg"
        plot_group_recovery(csv_path, svg_path)
        paths["svg"] = svg_path
    return paths


def plot_group_recovery(csv_path, svg_path) -> None:
    rows = _read_csv(csv_path)
    prop_cols = [c for c in rows[0] if c.startswith("prop_")]
    series = []
    markers = ("triangle", "square", "circle")
    tests = sorted({r["test"] for r in rows})
    for t_idx, test_name in enumerate(tests):
        sub = sorted((r for r in rows if r["test"] == test_name),
                     key=lambda r: float(r["n"]))
        for c_idx, col in enumerate(prop_cols):
            series.append(Series(
                label=f"{test_name} {col[5:]}",
                x=tuple(float(r["n"]) for r in sub),
                y=tuple(float(r[col]) for r in sub),
                marker=markers[c_idx % len(markers)],
                filled=(t_idx == 0),
                color=_SERIES_COLORS[c_idx % len(_SERIES_COLORS)]))
    write_svg(svg_path, series, xlabel="n", ylabel="proportion",
              title="estimated-subgroup proportions")


# ---------------------------------------------------------------------------
# Estimator comparison
# ---------------------------------------------------------------------------

def _estimator_task(args):
    cfg, lattice, noise, thresholds, n, rep = args
    rng = _rng_for(cfg, n, rep)
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    train = scenario.sample_train(rng, n)
    held_out = scenario.sample_test(rng, n if cfg.test_size is None else cfg.test_size)

    def factory(data: RegressionDataset):
        return _tester(cfg, cfg.search.test, data, noise, thresholds)

    plain = fit_lce(train)
    seed_full = _child_seed(rng)
    seed_split = _child_seed(rng)
    full = symmetrized_estimator(train, lattice, factory,
                                 _search_config(cfg, seed_full), variant="full")
    split = symmetrized_estimator(train, lattice, factory,
                                  _search_config(cfg, seed_split), variant="split")
    return (mspe(plain, held_out), mspe(full, held_out), mspe(split, held_out),
            lattice.node(full.node_id).label, lattice.node(split.node_id).label)


def run_estimator_comparison(cfg: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    """Held-out MSPE of the plain, full-data symmetrised, and split-data
    symmetrised estimators, per sample size and replicate."""
    out_dir = Path(out_dir)
    if cfg.scenario_id not in ("1", "2", "3", "4"):
        raise ConfigError("estimator-compare needs scenario id 1, 2, 3, or 4")
    lattice = build_lattice(cfg.lattice)
    scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
    noise = gaussian_noise(_noise_sigma(cfg, scenario))
    thresholds = _exceedance_thresholds(cfg, noise)
    rows = []
    mean_rows = []
    for n in cfg.sample_sizes:
        tasks = [(cfg, lattice, noise, thresholds, n, rep) for rep in range(cfg.replicates)]
        results = _run_tasks(_estimator_task, tasks, cfg.jobs)
        for rep, (a, b, c, node_b, node_c) in enumerate(results):
            rows.append([cfg.scenario_id, n, rep, float(a), float(b), float(c),
                         node_b, node_c])
        arr = np.array([r[:3] for r in results], dtype=float)
        mean_rows.append([cfg.scenario_id, n] + [float(v) for v in arr.mean(axis=0)])
    csv_path = out_dir / "estimator_compare.csv"
    _write_csv(csv_path, ["scenario", "n", "replicate", "mspe_A", "mspe_B", "mspe_C",
                          "node_B", "node_C"], rows)
    means_path = out_dir / "estimator_compare_means.csv"
    _write_csv(means_path, ["scenario", "n", "mean_mspe_A", "mean_mspe_B", "mean_mspe_C"],
               mean_rows)
    paths = {"csv": csv_path, "means_csv": means_path}
    if cfg.fmt in ("svg", "both"):
        svg_path = out_dir / "estimator_compare.svg"
        plot_estimator_comparison(csv_path, means_path, svg_path)
        paths["svg"] = svg_path
    return paths


def plot_estimator_comparison(csv_path, means_path, svg_path) -> None:
    rows = _read_csv(csv_path)
    means = _read_csv(means_path)
    colors = {"A": "black", "B": "blue", "C": "red"}
    series = []
    for name in ("A", "B", "C"):
        series.append(Series(
            label=f"estimator {name} replicates",
            x=tuple(float(r["n"]) for r in rows),
            y=tuple(float(r[f"mspe_{name}"]) for r in rows),
            marker="tick", filled=False, color=colors[name]))
    for name in ("A", "B", "C"):
        sub = sorted(means, key=lambda r: float(r["n"]))
        series.append(Series(
            label=f"estimator {name} mean",
            x=tuple(float(r["n"]) for r in sub),
            y=tuple(float(r[f"mean_mspe_{name}"]) for r in sub),
            marker="circle", filled=True, color=colors[name]))
    write_svg(svg_path, series, xlabel="n", ylabel="MSPE",
              title="mean squared prediction error", log_y=True)


# ---------------------------------------------------------------------------
# Single search
# ---------------------------------------------------------------------------

def run_single_search(cfg: ExperimentConfig, out_dir: Path) -> dict[str, Path]:
    """One lattice search over generated or ingested data, with per-node report."""
    out_dir = Path(out_dir)
    lattice = build_lattice(cfg.lattice)
    rng = _rng_for(cfg, 0, 0)
    if cfg.data.source == "scenario":
        scenario = make_scenario(cfg.scenario_id, cfg.scenario_dim, cfg.scenario_sigma)
        data = scenario.sample_train(rng, cfg.data.n)
        sigma = _noise_sigma(cfg, scenario)
    elif cfg.data.source in ("csv", "idx"):
        data = ingest(cfg.data.path, cfg.data.source,
                      labels=cfg.data.labels or None, response=cfg.data.response)
        sigma = cfg.test.noise_sigma if cfg.test.noise_sigma is not None else 0.0
    else:
        raise ConfigError(f"unknown data source {cfg.data.source!r}")
    if cfg.search.test != "oracle" and data.dim != lattice.action.dim:
        raise DataError(f"dataset dimension {data.dim} does not match the lattice's "
                        f"ambient action dimension {lattice.action.dim}")
    if cfg.search.test == "oracle":
        try:
            for label in cfg.search.oracle_reject:
                lattice.node_by_label(label)
        except LatticeError as exc:
            raise ConfigError(f"[search] oracle_reject: {exc}") from None
        tester = OracleTester.reject_labels(cfg.search.oracle_reject)
    else:
        tester = _tester(cfg, cfg.search.test, data, gaussian_noise(sigma))
    result = run_search(lattice, tester, _search_config(cfg, _child_seed(rng)))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "search_result.csv"
    write_result_csv(result, lattice, csv_path)
    annotation_path = out_dir / "hasse_annotation.txt"
    write_hasse_annotation(result, lattice, annotation_path)
    return {"csv": csv_path, "annotation": annotation_path, "result": result,
            "lattice": lattice}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _read_csv(path) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    if cfg.kind == "power-curve":
        return run_power_curve(cfg, out_dir)
    if cfg.kind == "group-recovery":
        return run_group_recovery(cfg, out_dir)
    if cfg.kind == "estimator-compare":
        return run_estimator_comparison(cfg, out_dir)
    return run_single_search(cfg, out_dir)
