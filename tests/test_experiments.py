import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symlat.cli import main as cli_main
from symlat.config import build_lattice, load_config
from symlat.errors import ConfigError, DataError
from symlat.experiments import plot_group_recovery, plot_power_curve, run_experiment
from symlat.ingest import ingest_csv, ingest_idx
from symlat.scenarios import make_scenario

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


def test_config_errors(tmp_path, capsys):
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
                         ("[test]\nBB = 10\n", "[test] unknown key 'bb'"),
                         ("[data]\nimages = imgs.idx\n", "[data] unknown key 'images'")):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, "u.ini", base + extra))
        assert named in str(err.value)
    # [data] path names the image file of an idx source; the old images key
    # is a configuration error, exit code 1
    capsys.readouterr()
    assert cli_main(["search", "--config", str(tmp_path / "u.ini"),
                     "--out", str(tmp_path / "rejected")]) == 1
    assert "[data] unknown key 'images'" in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()
    # configparser lowercases keys, so upper-case spellings of known keys load
    cfg = load_config(_write(tmp_path, "b.ini", base + "[test]\nB = 10\n"))
    assert cfg.test.B == 10
    # values that would fail only once the experiment runs, or that it would
    # quietly replace, fail at load and name the key
    for extra, named in (("seed = -1\n", "[experiment] seed: -1 is not >= 0"),
                         ("jobs = 0\n", "[experiment] jobs: 0 is not >= 1"),
                         ("jobs = -4\n", "[experiment] jobs: -4 is not >= 1"),
                         ("[data]\nn = -5\n", "[data] n: -5 is not >= 2"),
                         ("[data]\nn = 1\n", "[data] n: 1 is not >= 2")):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, "v.ini", base + extra))
        assert named in str(err.value)
    cfg = load_config(_write(tmp_path, "v.ini", base + "seed = 0\njobs = 1\n[data]\nn = 2\n"))
    assert (cfg.seed, cfg.jobs, cfg.data.n) == (0, 1, 2)


def test_config_rejects_alpha_outside_the_unit_interval(tmp_path):
    # a power curve builds no SearchConfig, so loading is the only check
    # that stops every one of its tests from rejecting
    for alpha in ("1.5", "0", "1", "-0.05", "nan"):
        with pytest.raises(ConfigError, match=r"\[test\] alpha"):
            load_config(_write(tmp_path, "a.ini", MINI_POWER + f"alpha = {alpha}\n"))
    assert load_config(_write(tmp_path, "a.ini", MINI_POWER + "alpha = 0.1\n")).test.alpha == 0.1

    # the other [test] keys fail at load too, naming the key, not once a
    # test runs with an error that names none
    def with_key(key, value):
        head, test = MINI_POWER.split("[test]\n")
        lines = [ln for ln in test.splitlines() if ln.split(" =")[0] != key]
        return head + "[test]\n" + "\n".join(lines) + f"\n{key} = {value}\n"

    for key, value in (("q", "1.5"), ("q", "0"), ("m", "0"), ("m", "-2"), ("perm_m", "0"),
                       ("B", "0"), ("grid_size", "0"), ("lipschitz", "-1"),
                       ("lipschitz", "0"), ("lipschitz", "inf"), ("exponent", "2"),
                       ("exponent", "0"), ("noise_sigma", "-1"), ("noise_sigma", "inf"),
                       ("noise_sigma", "nan"), ("thresholds", "0.2 0.1"),
                       ("thresholds", "0.1 0.1"), ("thresholds", "-1"),
                       ("thresholds", "nan"), ("thresholds", "inf"),
                       ("thresholds", "0.1 inf")):
        with pytest.raises(ConfigError, match=rf"\[test\] {key}:"):
            load_config(_write(tmp_path, "k.ini", with_key(key, value)))
    cfg = load_config(_write(tmp_path, "k.ini", with_key("thresholds", "0.1 0.2")
                             + "q = 1\nexponent = 1\ngrid_size = 1\nnoise_sigma = 0\n"))
    assert cfg.test.thresholds == (0.1, 0.2)
    assert (cfg.test.q, cfg.test.exponent, cfg.test.grid_size, cfg.test.noise_sigma) \
        == (1.0, 1.0, 1, 0.0)

    # so do the [scenario] noise and the [lattice] keys; a lattice the
    # builder refuses is a config error too
    for sigma in ("-1", "inf"):
        text = MINI_POWER.replace("noise_sigma = 0.05", f"noise_sigma = {sigma}")
        with pytest.raises(ConfigError, match=r"\[scenario\] noise_sigma:"):
            load_config(_write(tmp_path, "s.ini", text))
    for key, value in (("angle_std", "0"), ("angle_std", "-0.5"), ("side", "0")):
        with pytest.raises(ConfigError, match=rf"\[lattice\] {key}:"):
            load_config(_write(tmp_path, "l.ini", MINI_RECOVERY + f"{key} = {value}\n"))
    for lattice in ("orders = 1 3 4\ndim = 2", "orders = 1 2 4\ndim = 1"):
        text = MINI_RECOVERY.replace("orders = 1 2 4\ndim = 2", lattice)
        cfg = load_config(_write(tmp_path, "l.ini", text))
        with pytest.raises(ConfigError, match=r"\[lattice\] cyclic-chain:"):
            build_lattice(cfg.lattice)
    cfg = load_config(_write(tmp_path, "l.ini", MINI_RECOVERY + "angle_std = 0.5\nside = 1\n"))
    assert (cfg.lattice.angle_std, cfg.lattice.side) == (0.5, 1)


def test_config_rejects_a_test_size_below_one(tmp_path):
    for size in ("0", "-5"):
        text = MINI_ESTIMATOR.replace("test_size = 50", f"test_size = {size}")
        with pytest.raises(ConfigError, match=r"\[experiment\] test_size"):
            load_config(_write(tmp_path, "t.ini", text))
    text = MINI_ESTIMATOR.replace("test_size = 50", "test_size = 1")
    assert load_config(_write(tmp_path, "t.ini", text)).test_size == 1
    text = MINI_ESTIMATOR.replace("test_size = 50\n", "")
    assert load_config(_write(tmp_path, "t.ini", text)).test_size is None


def test_config_batch_key_loads_only_when_false(tmp_path):
    base = "[experiment]\nkind = search\n[search]\n"
    for value in ("false", "no", "0"):
        load_config(_write(tmp_path, "b.ini", base + f"batch = {value}\n"))
    with pytest.raises(ConfigError, match=r"\[search\] batch: batch mode was removed"):
        load_config(_write(tmp_path, "b.ini", base + "batch = true\n"))


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


def test_group_recovery_is_independent_of_jobs(tmp_path):
    # the lattice is built once and sent with each task to the workers
    text = MINI_RECOVERY.replace("types = exceedance",
                                 "types = exceedance permutation\nB = 12\nperm_m = n")
    cfg = load_config(_write(tmp_path, "r.ini", text))
    run_experiment(cfg, tmp_path / "serial")
    cfg.jobs = 2
    run_experiment(cfg, tmp_path / "parallel")
    serial = (tmp_path / "serial" / "group_recovery.csv").read_bytes()
    assert serial == (tmp_path / "parallel" / "group_recovery.csv").read_bytes()
    assert serial.decode().splitlines()[2].startswith("permutation,40,")


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


def test_group_recovery_plot_renders_a_small_table(tmp_path):
    csv_path = tmp_path / "recovery.csv"
    csv_path.write_text("test,n,prop_exact,prop_invariant\n"
                        "exceedance,100,0.25,0.5\n"
                        "exceedance,200,0.75,1.0\n", encoding="utf-8")
    svg = tmp_path / "recovery.svg"
    plot_group_recovery(csv_path, svg)
    text = svg.read_text(encoding="utf-8")
    assert "<svg" in text
    assert "estimated-subgroup proportions" in text
    assert "exceedance exact" in text and "exceedance invariant" in text


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


ORACLE_SEARCH = """
[experiment]
kind = search
seed = 5
[lattice]
builder = d4
dim = 2
[search]
test = oracle
oracle_reject = <h> <v>
[data]
source = scenario
n = 30
[scenario]
id = fd-rotation
dim = 2
"""


def test_oracle_reject_labels_must_name_lattice_nodes(tmp_path, capsys):
    # a label the lattice lacks used to reject nothing, so every node passed
    path = _write(tmp_path, "s.ini",
                  ORACLE_SEARCH.replace("<h> <v>", "<typo> <nothere>"))
    with pytest.raises(ConfigError, match=r"\[search\] oracle_reject: .*'<typo>'"):
        run_experiment(load_config(path), tmp_path / "out")
    capsys.readouterr()
    assert cli_main(["search", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1
    assert "[search] oracle_reject" in capsys.readouterr().err


def test_oracle_reject_needs_the_oracle_test(tmp_path, capsys):
    # the key used to be read under no test but the oracle, and ignored
    for test in ("test = exceedance\n", ""):
        path = _write(tmp_path, "s.ini", ORACLE_SEARCH.replace("test = oracle\n", test))
        with pytest.raises(ConfigError,
                           match=r"\[search\] oracle_reject: read only with test = oracle"):
            load_config(path)
    capsys.readouterr()
    assert cli_main(["search", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1
    assert "[search] oracle_reject" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


# a config refused once its run starts: an unknown oracle label, axes the
# lattice builder refuses, a lattice of the wrong dimension, and a runner
# given a scenario it cannot use
REFUSED_RUNS = {
    "oracle-typo": (ORACLE_SEARCH.replace("<h> <v>", "<typo>"),
                    r"\[search\] oracle_reject: .*'<typo>'"),
    "lattice-axes": (ORACLE_SEARCH.replace("builder = d4\ndim = 2",
                                           "builder = so3-axes\naxes = 0 0 1; 0 0 1")
                     .replace("oracle_reject = <h> <v>", "oracle_reject ="),
                     r"\[lattice\] so3-axes: .*collinear"),
    "recovery-dim": (MINI_RECOVERY.replace("orders = 1 2 4\ndim = 2", "orders = 1 2 4\ndim = 3"),
                     "lattice dimension 3 does not match scenario dimension 2"),
    "power-scenario": (MINI_POWER.replace("id = fd-rotation\ndim = 2", "id = 1"),
                       "power-curve needs the fd-rotation scenario"),
    "estimator-scenario": (MINI_ESTIMATOR.replace("id = 1", "id = fd-rotation\ndim = 3"),
                           "estimator-compare needs scenario id 1, 2, 3, or 4"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_RUNS))
def test_a_refused_run_leaves_no_output_directory(tmp_path, case):
    text, message = REFUSED_RUNS[case]
    cfg = load_config(_write(tmp_path, "r.ini", text))
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg, tmp_path / "out" / "nested")
    assert not (tmp_path / "out").exists()


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
    statuses = [result.statuses[i] for i in range(len(lat.nodes))]
    assert statuses.count("accepted") == len(lat.nodes)


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
path = {images}
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


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load_and_build(path):
    cfg = load_config(path)
    assert len(build_lattice(cfg.lattice).nodes) >= 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_and_exit_codes(tmp_path, capsys):
    cfg_path = _write(tmp_path, "p.ini", MINI_POWER)
    out = tmp_path / "cli_out"
    assert cli_main(["power-curve", "--config", str(cfg_path),
                     "--out", str(out), "--format", "csv"]) == 0
    assert (out / "power_curve.csv").exists()
    # config errors -> 1
    assert cli_main(["power-curve", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = _write(tmp_path, "bad.ini", "[experiment]\nkind = group-recovery\n")
    assert cli_main(["power-curve", "--config", str(bad)]) == 1
    # a negative seed, fewer than one job or fewer than two data rows -> 1,
    # naming the key, whether the file or the command line sets it
    neg = _write(tmp_path, "neg.ini", MINI_POWER.replace("seed = 77", "seed = -1"))
    rows = _write(tmp_path, "rows.ini", "[experiment]\nkind = search\n[data]\nn = -5\n")
    capsys.readouterr()
    for kind, config, flags, named in (
            ("power-curve", neg, [], "[experiment] seed: -1 is not >= 0"),
            ("power-curve", cfg_path, ["--seed", "-3"], "[experiment] seed: -3 is not >= 0"),
            ("power-curve", cfg_path, ["--jobs", "-4"], "[experiment] jobs: -4 is not >= 1"),
            ("power-curve", cfg_path, ["--jobs", "0"], "[experiment] jobs: 0 is not >= 1"),
            ("search", rows, [], "[data] n: -5 is not >= 2")):
        assert cli_main([kind, "--config", str(config),
                         "--out", str(tmp_path / "rejected")] + flags) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()
    # data errors -> 2
    missing_csv = tmp_path / "missing.csv"
    assert cli_main(["ingest-check", str(missing_csv), "--format", "csv"]) == 2


INFINITE_SEARCH = """
[experiment]
kind = search
seed = 5
[scenario]
id = 1
{scenario}
[test]
{test}
[lattice]
builder = sl3-extended
[search]
test = exceedance
[data]
n = 300
"""


@pytest.mark.parametrize("scenario, test, named", [
    ("", "lipschitz = inf", "[test] lipschitz: inf"),
    ("", "noise_sigma = inf", "[test] noise_sigma: inf"),
    ("noise_sigma = inf", "", "[scenario] noise_sigma: inf"),
    ("", "thresholds = inf", "[test] thresholds: inf")],
    ids=["lipschitz", "test-sigma", "scenario-sigma", "thresholds"])
def test_cli_refuses_infinite_scales(tmp_path, capsys, scenario, test, named):
    # an infinite test scale or threshold made every node pass with p = 1 and
    # exit 0; an infinite scenario sigma failed only once the data were drawn
    # (exit 2)
    config = _write(tmp_path, "inf.ini", INFINITE_SEARCH.format(scenario=scenario, test=test))
    assert cli_main(["search", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new", [("orders = 1 2 4", "orders = 1 3 4"),
                                      ("dim = 2\n\n[search]", "dim = 1\n\n[search]")],
                         ids=["orders", "dim"])
def test_cli_lattice_errors_name_the_config_file(tmp_path, capsys, old, new):
    # a builder's error surfaces when the experiment runs, after the config
    # loaded, and is reported like a load-time error: path, then section
    text = (Path(__file__).resolve().parents[1] / "configs" / "group_recovery.ini").read_text()
    assert old in text
    cfg_path = _write(tmp_path, "chain.ini", text.replace(old, new))
    assert cli_main(["group-recovery", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {cfg_path}: [lattice] cyclic-chain: " in capsys.readouterr().err


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


def test_cli_overflowing_features_exit_code(tmp_path, capsys):
    # features whose squared distances overflow are a data error -> 2; the
    # index error they used to raise was a runtime failure -> 3
    csv_file = tmp_path / "huge.csv"
    rows = (np.random.default_rng(0).normal(size=(20, 2)) * 1e154).tolist()
    csv_file.write_text("x0,x1,y\n" + "".join(f"{a!r},{b!r},{i}\n"
                                               for i, (a, b) in enumerate(rows)))
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
                     "--out", str(tmp_path / "out")]) == 2
    assert "squared distances overflow" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symlat.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "power-curve" in proc.stdout
