import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symlat.builders import (
    c2xc2_lattice,
    cyclic_chain_lattice,
    d4_lattice,
    sl3_extended_lattice,
    so3_axes_lattice,
    icosahedral_axes,
)
from symlat.cli import main as cli_main
from symlat.config import build_lattice, load_config
from symlat.data import RegressionDataset
from symlat.errors import ConfigError, DataError, InvalidGroupError, SymlatError
from symlat.experiments import plot_power_curve, run_experiment
from symlat.ingest import ingest_csv, ingest_idx
from symlat.invariance import gaussian_noise, known_bound
from symlat.scenarios import make_scenario
from symlat.search import ExceedanceTester, SearchConfig, run_search
from symlat.serialize import dumps_group, dumps_lattice, loads_group, loads_lattice

MINI_POWER = """
[experiment]
kind = power-curve
seed = 77
replicates = 4
sample_sizes = 30 60
format = both
[scenario]
id = fd-rotation
dim = 2
noise_sigma = 0.05
[test]
types = exceedance permutation
m = n
thresholds = 0.1
lipschitz = 1/e
B = 12
perm_m = n
"""

MINI_RECOVERY = """
[experiment]
kind = group-recovery
seed = 78
replicates = 5
sample_sizes = 40
format = csv
[scenario]
id = fd-rotation
dim = 2
[test]
types = exceedance
thresholds = 0.1
lipschitz = 1/e
[lattice]
builder = cyclic-chain
orders = 1 2 4
dim = 2
"""

MINI_ESTIMATOR = """
[experiment]
kind = estimator-compare
seed = 79
replicates = 2
sample_sizes = 40
test_size = 50
format = both
[scenario]
id = 1
[test]
thresholds = auto
lipschitz = 1.0
[lattice]
builder = sl3-extended
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenario_statistics():
    scen = make_scenario("fd-rotation", 3)
    rng = np.random.default_rng(0)
    data = scen.sample_train(rng, 4000)
    assert abs(data.X.var(axis=0, ddof=1) - 4.0).max() < 0.3
    resid = data.Y - np.exp(-np.abs(data.X[:, 0]))
    assert abs(resid.std(ddof=1) - 0.05) < 0.01
    scen3 = make_scenario("3")
    train = scen3.sample_train(rng, 4000)
    assert abs(train.X.var(axis=0, ddof=1) - [0.1, 0.1, 2.0]).max() < 0.2
    held = scen3.sample_test(rng, 4000)
    assert abs(held.X.var(axis=0, ddof=1) - 2.0).max() < 0.3
    with pytest.raises(ConfigError):
        make_scenario("99")
    with pytest.raises(ConfigError):
        make_scenario("1", dim=4)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, "p.ini", MINI_POWER))
    assert cfg.kind == "power-curve"
    assert cfg.sample_sizes == (30, 60)
    assert cfg.test.thresholds == (0.1,)
    assert abs(cfg.test.lipschitz - 1 / np.e) < 1e-15
    assert cfg.test.m is None  # "n"


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = _write(tmp_path, "bad.ini", "[experiment]\nkind = sideways\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad2 = _write(tmp_path, "bad2.ini",
                  "[experiment]\nkind = power-curve\nsample_sizes = 50 10\n")
    with pytest.raises(ConfigError):
        load_config(bad2)
    bad3 = _write(tmp_path, "bad3.ini",
                  "[experiment]\nkind = power-curve\nreplicates = zero\n")
    with pytest.raises(ConfigError) as err:
        load_config(bad3)
    assert "replicates" in str(err.value)
    # unknown sections and keys are named, not dropped
    base = "[experiment]\nkind = search\n"
    for extra, named in (("[serach]\nalgorithm = depth\n", "unknown section [serach]"),
                         ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
                         ("[search]\nalgoritm = depth\n", "[search] unknown key 'algoritm'"),
                         ("[lattice]\naxis = 0 0 1\n", "[lattice] unknown key 'axis'"),
                         ("[test]\nBB = 10\n", "[test] unknown key 'bb'")):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, "u.ini", base + extra))
        assert named in str(err.value)
    # configparser lowercases keys, so upper-case spellings of known keys load
    cfg = load_config(_write(tmp_path, "b.ini", base + "[test]\nB = 10\n"))
    assert cfg.test.B == 10


def test_build_lattice_from_settings(tmp_path):
    cfg = load_config(_write(tmp_path, "r.ini", MINI_RECOVERY))
    lat = build_lattice(cfg.lattice)
    assert [n.label for n in lat.nodes] == ["I", "C2", "C4"]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def test_power_curve_outputs_and_determinism(tmp_path):
    cfg = load_config(_write(tmp_path, "p.ini", MINI_POWER))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_experiment(cfg, out1)
    run_experiment(cfg, out2)
    csv1 = (out1 / "power_curve.csv").read_bytes()
    assert csv1 == (out2 / "power_curve.csv").read_bytes()
    assert (out1 / "power_curve.svg").read_bytes() == \
        (out2 / "power_curve.svg").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "test,hypothesis,n,rejection_rate,replicates"
    rows = csv1.decode().strip().splitlines()[1:]
    assert len(rows) == 2 * 2 * 2  # tests x hypotheses x sample sizes
    for row in rows:
        rate = float(row.split(",")[3])
        assert 0.0 <= rate <= 1.0


def test_parallel_schedule_independence(tmp_path):
    cfg = load_config(_write(tmp_path, "p.ini", MINI_POWER))
    cfg.sample_sizes = (30,)
    out1 = tmp_path / "serial"
    run_experiment(cfg, out1)
    cfg.jobs = 2
    out2 = tmp_path / "parallel"
    run_experiment(cfg, out2)
    assert (out1 / "power_curve.csv").read_bytes() == \
        (out2 / "power_curve.csv").read_bytes()


def test_group_recovery_outputs(tmp_path):
    cfg = load_config(_write(tmp_path, "r.ini", MINI_RECOVERY))
    out = tmp_path / "out"
    run_experiment(cfg, out)
    lines = (out / "group_recovery.csv").read_text().strip().splitlines()
    assert lines[0] == "test,n,prop_I,prop_C2,prop_C4"
    for line in lines[1:]:
        cells = line.split(",")
        props = [float(v) for v in cells[2:]]
        assert all(0.0 <= p <= 1.0 for p in props)
        counts = [round(p * cfg.replicates) for p in props]
        assert sum(counts) == cfg.replicates  # proportions partition exactly


def test_estimator_compare_outputs(tmp_path):
    cfg = load_config(_write(tmp_path, "e.ini", MINI_ESTIMATOR))
    out = tmp_path / "out"
    run_experiment(cfg, out)
    lines = (out / "estimator_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario,n,replicate,mspe_A,mspe_B,mspe_C,node_B,node_C"
    assert len(lines) == 1 + len(cfg.sample_sizes) * cfg.replicates
    means = (out / "estimator_compare_means.csv").read_text().strip().splitlines()
    assert means[0] == "scenario,n,mean_mspe_A,mean_mspe_B,mean_mspe_C"
    assert (out / "estimator_compare.svg").exists()


def test_plots_regenerate_identically(tmp_path):
    cfg = load_config(_write(tmp_path, "p.ini", MINI_POWER))
    out = tmp_path / "out"
    run_experiment(cfg, out)
    svg = out / "power_curve.svg"
    original = svg.read_bytes()
    plot_power_curve(out / "power_curve.csv", svg, cfg.test.alpha)
    assert svg.read_bytes() == original


def test_single_search_with_oracle(tmp_path):
    config_text = """
[experiment]
kind = search
seed = 5
[lattice]
builder = d4
dim = 2
[search]
test = oracle
oracle_reject = <h> <v>
tie_rule = meet-of-maxima
[data]
source = scenario
n = 30
[scenario]
id = fd-rotation
dim = 2
"""
    cfg = load_config(_write(tmp_path, "s.ini", config_text))
    out = tmp_path / "out"
    paths = run_experiment(cfg, out)
    lat = paths["lattice"]
    result = paths["result"]
    assert {lat.node(i).label for i in result.tilde_set} == {"<r90>", "<d,r180>"}
    assert lat.node(result.estimate).label == "<r180>"
    text = (out / "search_result.csv").read_text()
    assert "pruned" in text and "rejected" in text


def test_single_search_all_accept_reaches_top(tmp_path):
    config_text = """
[experiment]
kind = search
seed = 5
[lattice]
builder = cyclic-chain
orders = 1 2 4
dim = 2
[search]
test = oracle
oracle_reject =
[data]
source = scenario
n = 20
[scenario]
id = fd-rotation
dim = 2
"""
    cfg = load_config(_write(tmp_path, "s.ini", config_text))
    paths = run_experiment(cfg, tmp_path / "out")
    lat, result = paths["lattice"], paths["result"]
    assert result.estimate == lat.top
    statuses = [result.statuses[i] for i in range(len(lat))]
    assert statuses.count("accepted") == len(lat)


def test_single_search_on_idx_images(tmp_path):
    # zero-noise image search over the square-symmetry pixel lattice: labels
    # depend only on total intensity, so every subgroup should be accepted
    images, labels, pixels = _write_idx(tmp_path, n=40, side=4)
    sums = pixels.reshape(40, -1).sum(axis=1)
    label_bytes = (sums > np.median(sums)).astype(np.uint8).tobytes()
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 0x801, 40) + label_bytes)
    config_text = f"""
[experiment]
kind = search
seed = 9
[lattice]
builder = d4-pixels
side = 4
[search]
test = exceedance
[test]
noise_sigma = 0.0
lipschitz = 4.0
[data]
source = idx
images = {images}
labels = {tmp_path / 'labels.idx'}
"""
    cfg = load_config(_write(tmp_path, "s.ini", config_text))
    paths = run_experiment(cfg, tmp_path / "out")
    lat, result = paths["lattice"], paths["result"]
    assert lat.action.dim == 16
    assert result.tests_performed >= 5
    assert (tmp_path / "out" / "hasse_annotation.txt").exists()


def test_single_search_dimension_mismatch(tmp_path):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("x0,x1,x2,y\n" + "\n".join(
        f"{i},{i + 1},{i + 2},{i * 0.5}" for i in range(6)) + "\n")
    config_text = f"""
[experiment]
kind = search
seed = 5
[lattice]
builder = cyclic-chain
orders = 1 2 4
dim = 2
[search]
test = exceedance
[test]
noise_sigma = 0.05
[data]
source = csv
path = {csv_file}
response = y
"""
    cfg = load_config(_write(tmp_path, "s.ini", config_text))
    with pytest.raises(DataError):
        run_experiment(cfg, tmp_path / "out")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c,y\n1,2,3,0.5\n4,5,6,1.5\n7,8,9,2.5\n0,1,2,3.5\n1,1,1,4.5\n")
    data = ingest_csv(path)
    assert data.n == 5 and data.dim == 3
    assert data.Y.tolist() == [0.5, 1.5, 2.5, 3.5, 4.5]
    path2 = tmp_path / "bad.csv"
    path2.write_text("a,y\n1,2\nfoo,3\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path2)
    assert ":3" in str(err.value)
    path3 = tmp_path / "nohdr.csv"
    path3.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        ingest_csv(path3)


def _write_idx(tmp_path, n=4, side=4, truncate=False):
    images = tmp_path / "imgs.idx"
    labels = tmp_path / "labels.idx"
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    payload = struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes()
    if truncate:
        payload = payload[:-3]
    images.write_bytes(payload)
    labels.write_bytes(struct.pack(">II", 0x801, n) +
                       bytes(range(n)))
    return images, labels, pixels


def test_ingest_idx(tmp_path):
    images, labels, pixels = _write_idx(tmp_path)
    data = ingest_idx(images, labels)
    assert data.n == 4 and data.dim == 16
    assert data.X[0, 0] == 1.0  # pixel 255 maps to 1.0
    assert np.allclose(data.X, pixels.reshape(4, 16) / 255.0)
    assert data.Y.tolist() == [0.0, 1.0, 2.0, 3.0]
    images28, labels28, _ = _write_idx(tmp_path, n=3, side=28)
    assert ingest_idx(images28, labels28).dim == 784


def test_ingest_idx_errors(tmp_path):
    images, labels, _ = _write_idx(tmp_path, truncate=True)
    with pytest.raises(DataError) as err:
        ingest_idx(images, labels)
    assert "byte offset" in str(err.value)
    images2, labels2, _ = _write_idx(tmp_path)
    bad_labels = tmp_path / "short.idx"
    bad_labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes(range(2)))
    with pytest.raises(DataError):
        ingest_idx(images2, bad_labels)
    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x999, 1, 2, 2) + bytes(4))
    with pytest.raises(DataError) as err:
        ingest_idx(bad_magic, labels2)
    assert "magic" in str(err.value)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_group_serialization_round_trip():
    lat = d4_lattice()
    for node in lat.nodes:
        text = dumps_group(node.group)
        again = loads_group(text)
        assert dumps_group(again) == text
        assert again.kind == node.group.kind
        if node.group.is_finite:
            assert again.members == node.group.members
    s1 = so3_axes_lattice(icosahedral_axes()).node_by_label("S1_u1").group
    text = dumps_group(s1)
    again = loads_group(text)
    assert dumps_group(again) == text
    assert np.array_equal(again.axis, s1.axis)
    sl3 = sl3_extended_lattice()
    for label in ("SO3", "SL3"):
        text = dumps_group(sl3.node_by_label(label).group)
        assert text == f"symlat-group v1\nlabel {label}\nkind {label.lower()}\nend\n"
        assert dumps_group(loads_group(text)) == text


def test_lattice_serialization_round_trip():
    from symlat.builders import d4_pixel_lattice
    for lat in (d4_lattice(), cyclic_chain_lattice([1, 2, 4]), c2xc2_lattice(),
                so3_axes_lattice(icosahedral_axes()), sl3_extended_lattice(),
                d4_pixel_lattice(3)):
        text = dumps_lattice(lat)
        again = loads_lattice(text)
        assert dumps_lattice(again) == text
        assert len(again) == len(lat)
        assert np.array_equal(again.leq, lat.leq)
        assert [n.label for n in again.nodes] == [n.label for n in lat.nodes]
        for a, b in zip(again.nodes, lat.nodes):
            assert a.group.kind == b.group.kind
            assert a.sampler.kind == b.sampler.kind
            assert a.projection.kind == b.projection.kind
            if b.group.is_finite:
                assert a.group.members == b.group.members

        # the reattached samplers draw what the built ones draw
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, lat.action.dim))
        Y = np.linalg.norm(X, axis=1) + 0.3 * X[:, 0] + 0.1 * rng.normal(size=60)
        tester = ExceedanceTester(RegressionDataset(X, Y), known_bound(1.0),
                                  gaussian_noise(0.1), m=60)
        for batch in (False, True):
            config = SearchConfig(seed=21, batch=batch)
            built = run_search(lat, tester, config)
            loaded = run_search(again, tester, config)
            assert (built.estimate, built.statuses) == (loaded.estimate, loaded.statuses)
            assert {k: o.p_value for k, o in built.outcomes.items()} == \
                {k: o.p_value for k, o in loaded.outcomes.items()}


def test_lattice_loader_rejects_fact_lines():
    text = dumps_lattice(so3_axes_lattice(icosahedral_axes()))
    assert "\nfact " not in text
    with pytest.raises(SymlatError, match="unknown lattice line 'fact 7 1 2'"):
        loads_lattice(text.replace("\nend\n", "\nfact 7 1 2\nend\n"))


def test_lattice_loader_rejects_an_unknown_action_kind():
    text = dumps_lattice(d4_lattice())
    assert "\naction matrix\n" in text
    with pytest.raises(InvalidGroupError, match="unknown action kind 'bogus'"):
        loads_lattice(text.replace("\naction matrix\n", "\naction bogus\n"))


def _chain_text(old, new):
    """The I < C2 < C4 chain's lattice text with line ``old`` replaced by ``new``."""
    text = dumps_lattice(cyclic_chain_lattice([1, 2, 4]))
    assert f"\n{old}\n" in text
    return text.replace(f"\n{old}\n", f"\n{new}\n")


PLANE_GROUP = "symlat-group v1\nlabel P\nkind s1-plane\nplane 0 1\nend\n"
AXES_TEXT = dumps_lattice(so3_axes_lattice(icosahedral_axes()))


@pytest.mark.parametrize("load, old, new, quoted", [
    (loads_lattice, "node 2 C4 finite 0,1,2,3", "node 9 C4 finite 0,1,2,3",
     "'node 9 C4 finite 0,1,2,3'"),
    (loads_lattice, "node 2 C4 finite 0,1,2,3", "node 1 C4 finite 0,1,2,3",
     "'node 1 C4 finite 0,1,2,3'"),
    (loads_lattice, "cover 1 2", "cover 1 7", "'cover 1 7'"),
    (loads_lattice, "cover 0 1", "cover -1 2", "'cover -1 2'"),
    (loads_lattice, "cover 1 2", "cover 1 x", "'cover 1 x'"),
    (loads_lattice, "cover 1 2", "cover 1", "'cover 1'"),
    (loads_lattice, "dim 2", "dim x", "'dim x'"),
    (loads_lattice, "node 1 C2 finite 0,2", "node 1 C2 finite 0,9", "member index 9"),
    (loads_group, None, PLANE_GROUP, "'plane 0 1'"),
    (loads_group, None, PLANE_GROUP.replace("plane 0 1\n", ""), "'s1-plane'"),
    (loads_lattice, None, AXES_TEXT.replace("\nnode 7 SO3 so3\n", "\nnode 7 SO3 so3 0.1 junk\n"),
     "'node 7 SO3 so3 0.1 junk'"),
], ids=["node-9", "duplicate-node", "cover-past-end", "cover-negative",
        "cover-not-a-number", "cover-one-id", "dim-not-a-number", "member-past-end",
        "plane-group", "plane-kind", "so3-payload"])
def test_loaders_reject_bad_ids_numbers_and_kinds(load, old, new, quoted):
    text = new if old is None else _chain_text(old, new)
    with pytest.raises(SymlatError) as err:
        load(text)
    assert quoted in str(err.value)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load_and_build(path):
    cfg = load_config(path)
    assert len(build_lattice(cfg.lattice)) >= 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_and_exit_codes(tmp_path):
    cfg_path = _write(tmp_path, "p.ini", MINI_POWER)
    out = tmp_path / "cli_out"
    assert cli_main(["power-curve", "--config", str(cfg_path),
                     "--out", str(out), "--format", "csv"]) == 0
    assert (out / "power_curve.csv").exists()
    # config errors -> 1
    assert cli_main(["power-curve", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = _write(tmp_path, "bad.ini", "[experiment]\nkind = group-recovery\n")
    assert cli_main(["power-curve", "--config", str(bad)]) == 1
    # data errors -> 2
    missing_csv = tmp_path / "missing.csv"
    assert cli_main(["ingest-check", str(missing_csv), "--format", "csv"]) == 2


def test_cli_rejects_unknown_search_choices(tmp_path, capsys):
    for key in ("algorithm", "tie_rule", "test"):
        cfg_path = _write(tmp_path, f"{key}.ini",
                          f"[experiment]\nkind = search\n[search]\n{key} = permutaton\n")
        assert cli_main(["search", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert f"[search] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, value", [
    ("estimator-compare", "oracle"),      # only kind = search runs the oracle
    ("group-recovery", "permutation"),    # these two read [test] types
    ("power-curve", "exceedance"),
])
def test_cli_rejects_search_test_the_kind_does_not_run(tmp_path, capsys, kind, value):
    cfg_path = _write(tmp_path, "k.ini",
                      f"[experiment]\nkind = {kind}\n[search]\ntest = {value}\n")
    assert cli_main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "[search] test" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = _write(tmp_path, "p.ini", MINI_POWER)
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cli_main(["power-curve", "--config", str(cfg_path), "--out", str(out1),
              "--format", "csv"])
    cli_main(["power-curve", "--config", str(cfg_path), "--out", str(out2),
              "--format", "csv", "--seed", "999"])
    cli_main(["power-curve", "--config", str(cfg_path), "--out", str(out3),
              "--format", "csv", "--seed", "77"])
    base = (out1 / "power_curve.csv").read_bytes()
    assert base != (out2 / "power_curve.csv").read_bytes()
    assert base == (out3 / "power_curve.csv").read_bytes()


def test_cli_ingest_check_ok(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("a,y\n1,2\n3,4\n")
    assert cli_main(["ingest-check", str(path), "--format", "csv"]) == 0
    assert "n=2 d=1" in capsys.readouterr().out


def test_cli_runtime_failure_exit_code(tmp_path, capsys):
    # constant features make the permutation test's bound degenerate -> 3
    csv_file = tmp_path / "const.csv"
    csv_file.write_text("x0,x1,y\n" + "\n".join("1,1,%d" % i for i in range(6)) + "\n")
    config_text = f"""
[experiment]
kind = search
seed = 1
[lattice]
builder = cyclic-chain
orders = 1 2 4
dim = 2
[search]
test = permutation
[data]
source = csv
path = {csv_file}
"""
    cfg_path = _write(tmp_path, "s.ini", config_text)
    assert cli_main(["search", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symlat.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "power-curve" in proc.stdout
