"""Exit-code contract, flag parsing, and golden replay for the command line."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from martonlab import cli, experiments
from martonlab.channels import InputDesign, channel_from_json
from martonlab.cli import OUTPUT_DIR_ENV, main
from martonlab.divergences import classical_i0, classical_i_infty
from martonlab.errors import (
    ConvergenceError,
    InfeasibleRates,
    SupportOverflowError,
    ValidationError,
)
from martonlab.experiments import achieved_divergences
from martonlab.prob import JointPmf
from martonlab.rng import SeededRng

DSBS40 = {"row_labels": ["0", "1"], "col_labels": ["0", "1"],
          "probs": [[0.40, 0.10], [0.10, 0.40]]}
DSBS45 = {"row_labels": ["0", "1"], "col_labels": ["0", "1"],
          "probs": [[0.45, 0.05], [0.05, 0.45]]}
INDEP = {"row_labels": ["0", "1"], "col_labels": ["0", "1"],
         "probs": [[0.25, 0.25], [0.25, 0.25]]}


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bsc_pair_doc(p: float, q: float) -> dict:
    xs = ["00", "01", "10", "11"]
    planes = []
    for x in xs:
        plane = [[0.0, 0.0], [0.0, 0.0]]
        for y in range(2):
            for z in range(2):
                py = (1 - p) if y == int(x[0]) else p
                pz = (1 - q) if z == int(x[1]) else q
                plane[y][z] = py * pz
        planes.append(plane)
    return {"type": "classical", "x_alphabet": xs, "y_alphabet": ["0", "1"],
            "z_alphabet": ["0", "1"], "p": planes}


def design_doc(joint=INDEP) -> dict:
    return {"uv": joint,
            "f": {"0,0": "00", "0,1": "01", "1,0": "10", "1,1": "11"}}


def matrix_doc(m) -> dict:
    arr = np.asarray(m, dtype=complex)
    return {"dim": arr.shape[0],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in arr]}


def qubit_cq_doc(theta: float = 0.35) -> dict:
    c, s = math.cos(theta), math.sin(theta)
    kb = {"0": np.array([[1, 0], [0, 0]], dtype=complex),
          "1": np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)}
    kc = {"0": np.diag([0.85, 0.15]).astype(complex),
          "1": np.diag([0.30, 0.70]).astype(complex)}
    xs = ["00", "01", "10", "11"]
    return {"type": "cq", "x_alphabet": xs, "dim_b": 2, "dim_c": 2,
            "states": {x: matrix_doc(np.kron(kb[x[0]], kc[x[1]])) for x in xs}}


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    return out


class TestDivergence:
    def test_i_infty_value(self, tmp_path, capsys):
        f = write_json(tmp_path / "j.json", DSBS40)
        rc = main(["divergence", "--joint", f, "--kind", "i-infty", "--eps", "0.25"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.log2(1.6))
        assert doc["witness"]["kind"] == "max-div-set"

    def test_i0_exhaustive_matches_library(self, tmp_path, capsys):
        f = write_json(tmp_path / "j.json", DSBS45)
        rc = main(["divergence", "--joint", f, "--kind", "i0",
                   "--eps", "0.1", "--method", "exhaustive"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        joint = JointPmf.from_json(DSBS45)
        assert doc["value"] == pytest.approx(
            classical_i0(joint, 0.1, method="exhaustive").value)

    def test_malformed_pmf_is_parse_error(self, tmp_path, capsys):
        bad = dict(DSBS40, probs=[[0.4, 0.1], [0.1, 0.1]])
        f = write_json(tmp_path / "bad.json", bad)
        rc = main(["divergence", "--joint", f, "--kind", "i0", "--eps", "0.1"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, tmp_path):
        rc = main(["divergence", "--joint", str(tmp_path / "nope.json"),
                   "--kind", "i0", "--eps", "0.1"])
        assert rc == 3

    def test_bad_eps_is_infeasible(self, tmp_path):
        f = write_json(tmp_path / "j.json", DSBS40)
        rc = main(["divergence", "--joint", f, "--kind", "i0", "--eps", "1.5"])
        assert rc == 2


class TestBands:
    def test_reference_instance(self, capsys):
        rc = main(["bands", "--R1", "5", "--R2", "5", "--i0b", "30", "--i0c", "30",
                   "--i-infty", "2", "--eps-tilde", "0.0625"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["r1"], doc["r2"]) == (8, 6)

    def test_explain_lists_constraints(self, capsys):
        rc = main(["bands", "--R1", "5", "--R2", "5", "--i0b", "30", "--i0c", "30",
                   "--i-infty", "2", "--eps-tilde", "0.0625", "--explain"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in doc["constraints"]]
        assert names == ["row budget", "column budget", "row band floor",
                         "column band floor", "band sum"]
        assert all("slack" in c for c in doc["constraints"])

    def test_explain_band_sum_uses_the_guarded_target(self, capsys):
        # i_infty + 3 log2(1/eps_tilde) = 12 + 1e-10: the selection treats it
        # as 12, and so must the explanation
        rc = main(["bands", "--R1", "1", "--R2", "1", "--i0b", "40", "--i0c", "40",
                   "--i-infty", "3.0000000001", "--eps-tilde", "0.125", "--explain"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        band_sum = doc["constraints"][-1]
        assert doc["r1"] + doc["r2"] == 12
        assert (band_sum["lhs"], band_sum["rhs"], band_sum["slack"]) == (12, 12, 0)
        assert "# band sum: 12 == 12 (slack 0)" in captured.err

    def test_infeasible_exit_code(self, capsys):
        rc = main(["bands", "--R1", "5", "--R2", "5", "--i0b", "12", "--i0c", "30",
                   "--i-infty", "2", "--eps-tilde", "0.0625"])
        assert rc == 2

    def test_bad_flag_is_parse_error(self, capsys):
        rc = main(["bands", "--R1", "x", "--R2", "5", "--i0b", "30", "--i0c", "30",
                   "--i-infty", "2", "--eps-tilde", "0.0625"])
        assert rc == 3


class TestCovering:
    def test_reference_point_and_power_syntax(self, outdir, capsys):
        rc = main(["covering", "--r", "1024", "--s", "1024", "--q", "2^-10",
                   "--alpha", "0.25", "--trials", "2000", "--seed", "5"])
        assert rc == 0
        doc = json.loads((outdir / "covering.json").read_text())
        assert doc["q"] == pytest.approx(2.0**-10)
        assert doc["bound"] == pytest.approx(0.03515625)
        assert not doc["violation"]

    def test_inconsistent_design_thinning_violates(self, tmp_path, outdir, capsys):
        # q says the indicator fires at rate 1/2, but the simulated
        # thinning exponent is far larger, so Z = 0 nearly always
        f = write_json(tmp_path / "d.json", design_doc(DSBS45))
        rc = main(["covering", "--r", "64", "--s", "64", "--q", "0.5",
                   "--alpha", "0.25", "--trials", "200", "--seed", "3",
                   "--design", f, "--i-infty", "30"])
        assert rc == 1
        doc = json.loads((outdir / "covering.json").read_text())
        assert doc["violation"]

    def test_design_without_i_infty_is_parse_error(self, tmp_path, outdir):
        f = write_json(tmp_path / "d.json", design_doc(DSBS45))
        rc = main(["covering", "--r", "8", "--s", "8", "--q", "0.5",
                   "--alpha", "0.25", "--trials", "10", "--design", f])
        assert rc == 3

    def test_bad_power_syntax(self, outdir):
        rc = main(["covering", "--r", "8", "--s", "8", "--q", "2^x",
                   "--alpha", "0.25", "--trials", "10"])
        assert rc == 3

    def test_out_of_range_q(self, outdir):
        rc = main(["covering", "--r", "8", "--s", "8", "--q", "1.5",
                   "--alpha", "0.25", "--trials", "10"])
        assert rc == 3

    @pytest.mark.parametrize("design", [True, False])
    def test_band_over_budget_exits_2(self, tmp_path, outdir, capsys, no_draws, design):
        argv = ["covering", "--q", "2^-30", "--alpha", "0.5", "--trials", "10"]
        if design:
            argv += ["--r", "4096", "--s", "4096", "--i-infty", "1",
                     "--design", write_json(tmp_path / "d.json", design_doc())]
        else:
            argv += ["--r", str(2**23), "--s", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds the budget" in err and "Traceback" not in err

    def test_eps0_flag_is_gone(self, tmp_path, outdir, capsys):
        # the design-driven covering run has no acceptance gate for eps0 to set
        f = write_json(tmp_path / "d.json", design_doc())
        argv = ["covering", "--r", "4", "--s", "4", "--q", "0.1", "--alpha", "0.5",
                "--trials", "10", "--design", f, "--i-infty", "1"]
        assert main(argv) == 0
        assert main(argv + ["--eps0", "1.5"]) == 3


class TestRegion:
    def test_report_and_csv(self, outdir, capsys):
        rc = main(["region", "--i0b", "30", "--i0c", "25", "--i-infty", "2",
                   "--eps-tilde", "0.0625", "--eps0", "0.01"])
        assert rc == 0
        doc = json.loads((outdir / "region.json").read_text())
        assert doc["marton"]["name"] == "marton"
        assert doc["containment_without_penalties"]["marton_contains_verdu"]
        assert not doc["containment_without_penalties"]["verdu_contains_marton"]
        lines = (outdir / "region.csv").read_text().strip().splitlines()
        assert lines[0].startswith("region")
        assert len(lines) > 3

    def test_bad_gamma(self, outdir):
        rc = main(["region", "--i0b", "30", "--i0c", "25", "--i-infty", "2",
                   "--eps-tilde", "0.0625", "--eps0", "0.01", "--gamma", "1.0"])
        assert rc == 3


class TestIidCurve:
    def test_report_matches_library(self, tmp_path, outdir, capsys):
        f = write_json(tmp_path / "j.json", DSBS45)
        rc = main(["iid-curve", "--base", f, "--eps", "0.05", "--n", "1,2,4"])
        assert rc == 0
        doc = json.loads((outdir / "iid_curve.json").read_text())
        assert [p["n"] for p in doc["points"]] == [1, 2, 4]
        joint = JointPmf.from_json(DSBS45)
        direct = classical_i0(joint, 0.05, method="randomized").value
        assert doc["points"][0]["i0_rate"] == pytest.approx(direct)
        lines = (outdir / "iid_curve.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",")[0] == "n"

    def test_bad_n_list(self, tmp_path, outdir):
        f = write_json(tmp_path / "j.json", DSBS45)
        assert main(["iid-curve", "--base", f, "--eps", "0.05", "--n", "1,x"]) == 3

    def test_zero_block_size(self, tmp_path, outdir):
        f = write_json(tmp_path / "j.json", DSBS45)
        assert main(["iid-curve", "--base", f, "--eps", "0.05", "--n", "0,2"]) == 2

    @pytest.mark.parametrize("n_list", ["", ",", " , "])
    def test_empty_n_list_is_parse_error(self, tmp_path, outdir, capsys, n_list):
        f = write_json(tmp_path / "j.json", DSBS45)
        assert main(["iid-curve", "--base", f, "--eps", "0.05", "--n", n_list]) == 3
        assert not (outdir / "iid_curve.json").exists()


def simulate_config(tmp_path, **over):
    write_json(tmp_path / "channel.json", bsc_pair_doc(0.01, 0.01))
    write_json(tmp_path / "design.json", design_doc())
    cfg = {"channel": "channel.json", "design": "design.json",
           "eps": 0.45, "eps0": 0.01, "eps_tilde": 0.01, "eps_infty": 0.25,
           "rates": [1, 1], "trials": 20, "seed": 21, "n": 56, "mode": "theorem"}
    cfg.update(over)
    return write_json(tmp_path / "sim.json", cfg)


def scrubbed(path):
    doc = json.loads(path.read_text())
    doc["report"].pop("started_at")
    doc["report"].pop("wall_clock_s")
    return doc


class TestSimulate:
    def test_theorem_mode_run_and_golden_replay(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--csv"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        doc_a = scrubbed(out_a / "simulate_report.json")
        doc_b = scrubbed(out_b / "simulate_report.json")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert doc_a["report"]["theorem_valid"]
        assert doc_a["config"]["bands"] == [12, 8]
        assert doc_a["config"]["seed"] == 21
        lines = (out_a / "simulate_events.csv").read_text().strip().splitlines()
        assert len(lines) == 8

    def test_seed_override(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, trials=5, n=1, mode="free",
                              eps0=0.1, eps_tilde=0.125, bands=[2, 2])
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--seed", "777",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        assert doc["config"]["seed"] == 777
        assert doc["report"]["seed"] == 777

    # the order-zero divergences of the noiseless case below underflow beta
    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log2:RuntimeWarning")
    def test_auto_rates(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, rates="auto", trials=3)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        channel = channel_from_json(bsc_pair_doc(0.01, 0.01))
        design = InputDesign.from_json(design_doc())
        i0b, i0c, i_inf = achieved_divergences(channel, design, 0.01, 0.25, n=56)
        ell = math.log2(1.0 / 0.01)
        want_r1 = math.floor(min(i0b - 5 * ell - 2,
                                 i0b + i0c - i_inf - 11 * ell - 5))
        assert doc["config"]["rates"][0] == want_r1
        assert doc["config"]["rates"][1] >= 0
        # through a noiseless pair at n = 1100 the order-zero divergences
        # overflow to inf, which leaves an 'auto' rate no finite cap
        write_json(tmp_path / "noiseless.json", bsc_pair_doc(0.0, 0.0))
        for rates, name in (("auto", "R1"), (["auto", 1], "R1"), ([1, "auto"], "R2")):
            cfg = simulate_config(tmp_path, channel="noiseless.json", rates=rates, n=1100,
                                  eps0=0.05, eps_tilde=0.125, mode="free", trials=1)
            capsys.readouterr()
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: the rate cap on 'auto' {name} is inf, not a finite number\n")

    def test_budget_inconsistency_is_infeasible(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, eps=0.40)
        assert main(["simulate", "--config", cfg]) == 2

    def test_free_mode_skips_budget_check(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, eps=0.40, mode="free", trials=3)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_eps_field_is_parse_error(self, tmp_path, capsys):
        cfg_file = simulate_config(tmp_path)
        cfg = json.loads((tmp_path / "sim.json").read_text())
        del cfg["eps_tilde"]
        write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", "--config", cfg_file]) == 3

    def test_malformed_channel_is_parse_error(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path)
        (tmp_path / "channel.json").write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", cfg]) == 3

    def test_setting_mismatch_is_infeasible(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, setting="quantum", trials=3)
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_mode_is_parse_error(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, mode="loose")
        assert main(["simulate", "--config", cfg]) == 3

    def test_explicit_bands_pass_through(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, mode="free", n=1, trials=5,
                              eps0=0.1, eps_tilde=0.125, bands=[3, 2])
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        assert doc["config"]["bands"] == [3, 2]
        assert doc["report"]["params"]["r1"] == 3

    def test_divergences_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = experiments.quantum_i0_cq

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "quantum_i0_cq", counted)
        write_json(tmp_path / "cq.json", qubit_cq_doc())
        write_json(tmp_path / "design.json", design_doc())
        cfg = write_json(tmp_path / "sim.json", {
            "channel": "cq.json", "design": "design.json",
            "eps": 0.9, "eps0": 0.05, "eps_tilde": 0.125, "eps_infty": 0.25,
            "rates": [1, 1], "bands": [2, 2], "trials": 5, "seed": 9, "mode": "free"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # one order-zero divergence per receiver
        assert len(calls) == 2

    def test_unknown_i0_method_is_parse_error(self, tmp_path, capsys):
        # the method is rejected where the run never reads it: n > 1 and cq
        cfg = simulate_config(tmp_path, i0_method="bogus", trials=2)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "i0_method" in capsys.readouterr().err
        write_json(tmp_path / "cq.json", qubit_cq_doc())
        cq_cfg = write_json(tmp_path / "cq_sim.json", {
            "channel": "cq.json", "design": "design.json",
            "eps": 0.9, "eps0": 0.05, "eps_tilde": 0.125, "eps_infty": 0.25,
            "rates": [1, 1], "bands": [2, 2], "trials": 2, "seed": 9, "mode": "free",
            "i0_method": "bogus"})
        assert main(["simulate", "--config", cq_cfg, "--out", str(out)]) == 3
        assert not (out / "simulate_report.json").exists()

    def test_quantum_config(self, tmp_path, capsys):
        write_json(tmp_path / "cq.json", qubit_cq_doc())
        write_json(tmp_path / "design.json", design_doc())
        cfg = write_json(tmp_path / "sim.json", {
            "channel": "cq.json", "design": "design.json",
            "eps": 0.9, "eps0": 0.05, "eps_tilde": 0.125, "eps_infty": 0.25,
            "rates": [1, 1], "bands": [2, 2], "trials": 40, "seed": 9,
            "mode": "free"})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        assert doc["report"]["setting"] == "quantum"
        assert {e["name"] for e in doc["report"]["events"]} == {
            "e1", "e2", "e3", "message_error", "index_error"}

    def test_codebook_over_budget_exits_2(self, tmp_path, outdir, capsys, monkeypatch):
        # refused from the band exponents alone: nothing is drawn or allocated
        def refuse(*args, **kwargs):
            raise AssertionError("drew from a stream")
        monkeypatch.setattr(SeededRng, "random", refuse)
        cfg = simulate_config(tmp_path, trials=5, n=1, mode="free", eps0=0.1,
                              eps_tilde=0.125, bands=[30, 2])
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "exceeds the budget" in err and "Traceback" not in err


def desk_config(tmp_path, **over):
    desk = dict(trials=5, n=1, mode="free", eps0=0.1, eps_tilde=0.125, bands=[2, 2])
    return simulate_config(tmp_path, **{**desk, **over})


_JSON = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2**70, 2**70),
    "float": st.floats(),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(-3, 3), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _json_except(*kinds):
    return st.one_of(*(strat for kind, strat in _JSON.items() if kind not in kinds))


# every typed simulate field with JSON values of a wrong type for it
WRONG_TYPED = st.one_of(
    *(st.tuples(st.just(k), _json_except("int", "float"))
      for k in ("eps", "eps0", "eps_tilde", "eps_infty")),
    *(st.tuples(st.just(k), _json_except("int")) for k in ("trials", "seed", "n")),
    *(st.tuples(st.just(k), _json_except("str"))
      for k in ("channel", "design", "i0_method", "mode", "setting")),
    st.tuples(st.just("resample_codebook"), _json_except("bool")),
    *(st.tuples(st.just(k), _json_except("list", "str")
                | st.lists(_JSON["int"], max_size=4).filter(lambda v: len(v) != 2)
                | st.lists(_json_except("int", "str"), min_size=2, max_size=2))
      for k in ("rates", "bands")),
)


class TestConfigErrors:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=WRONG_TYPED)
    def test_wrong_typed_field_is_parse_error(self, tmp_path, capsys, field):
        key, value = field
        cfg = desk_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field", [("trials", "abc"), ("eps0", None), ("n", 1.0),
                                       ("resample_codebook", "false"), ("rates", [1, True]),
                                       ("eps_tilde", 0.0), ("eps0", 1.5), ("eps_infty", -0.1),
                                       ("eps", float("nan"))])
    def test_reported_cases_are_parse_errors(self, tmp_path, capsys, field):
        cfg = desk_config(tmp_path, **dict([field]))
        assert main(["simulate", "--config", cfg]) == 3

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(["eps", "eps0", "eps_tilde", "eps_infty"]),
           value=st.floats(), mode=st.sampled_from(["free", "theorem"]))
    # a subnormal eps_tilde, whose 1/eps_tilde overflows
    @example(key="eps_tilde", value=2.225073858507203e-309, mode="free")
    @example(key="eps_tilde", value=2.225073858507203e-309, mode="theorem")
    def test_any_eps_value_exits_by_contract(self, tmp_path, capsys, key, value, mode):
        cfg = desk_config(tmp_path, **{key: value, "mode": mode})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1, 2, 3)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1])
    def test_seed_outside_64_bits_is_parse_error(self, tmp_path, capsys, seed):
        assert main(["simulate", "--config", desk_config(tmp_path, seed=seed)]) == 3
        assert main(["simulate", "--config", desk_config(tmp_path),
                     "--seed", str(seed)]) == 3
        assert main(["covering", "--r", "8", "--s", "8", "--q", "0.1", "--alpha", "0.5",
                     "--trials", "10", "--seed", str(seed)]) == 3

    def test_largest_seed_runs(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = desk_config(tmp_path, seed=2**64 - 1)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        assert doc["report"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("error", [SupportOverflowError, ConvergenceError,
                                       ValidationError, InfeasibleRates])
    def test_escaping_library_error_is_infeasible(self, tmp_path, outdir, capsys,
                                                  monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("llr support exceeded 100000 atoms")

        def exits(argv, code=2):
            assert main(argv) == code
            assert capsys.readouterr().err == "error: llr support exceeded 100000 atoms\n"

        # stands in for a library error no input reaches cheaply, such as a
        # spectrum past its atom cap; dsbs40 at n=1024 stays far below it
        base = write_json(tmp_path / "j.json", DSBS40)
        design = write_json(tmp_path / "d.json", design_doc())
        covering = ["covering", "--r", "8", "--s", "8", "--q", "0.1", "--alpha", "0.5",
                    "--trials", "10"]
        desk = desk_config(tmp_path)
        # without bands the simulate config selects them
        (tmp_path / "auto_bands").mkdir()
        no_bands = simulate_config(tmp_path / "auto_bands", trials=5, n=1, mode="free",
                                   eps0=0.1, eps_tilde=0.125)
        for owner, name, argv in (
                (cli, "classical_i0", ["divergence", "--joint", base, "--kind", "i0",
                                       "--eps", "0.05"]),
                (cli, "synthetic_covering", covering),
                (cli, "empirical_covering", covering + ["--design", design, "--i-infty", "1"]),
                (cli, "iid_convergence_curve", ["iid-curve", "--base", base, "--eps", "0.05",
                                                "--n", "1024"]),
                (cli.Scheme, "shared", ["simulate", "--config", desk]),
                (cli, "select_band_exponents", ["simulate", "--config", no_bands]),
                (cli.Scheme, "run", ["simulate", "--config", desk])):
            with monkeypatch.context() as m:
                m.setattr(owner, name, fail)
                exits(argv)
        # bands reads a ValidationError as malformed flags
        monkeypatch.setattr(cli, "select_band_exponents", fail)
        exits(["bands", "--R1", "5", "--R2", "5", "--i0b", "30", "--i0c", "30",
               "--i-infty", "2", "--eps-tilde", "0.0625"],
              3 if error is ValidationError else 2)


def _set(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at ``path`` (a tuple of keys) set to
    ``value``; ``doc`` may share its parts with module constants such as INDEP."""
    doc = copy.deepcopy(doc)
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


# input files of simulate with one field of a wrong JSON type: the file, the
# path to the field and its value
MALFORMED_INPUTS = [
    ("channel", qubit_cq_doc, ("states",), 5),
    ("channel", qubit_cq_doc, ("dim_b",), "x"),
    ("channel", qubit_cq_doc, ("x_alphabet",), 5),
    ("channel", qubit_cq_doc, ("states", "00", "entries"), 3),
    ("channel", qubit_cq_doc, ("states", "00", "dim"), "a"),
    ("channel", lambda: bsc_pair_doc(0.1, 0.1), ("p",), "abc"),
    ("channel", lambda: bsc_pair_doc(0.1, 0.1), ("x_alphabet",), 7),
    ("design", design_doc, ("f",), [1, 2]),
    ("design", design_doc, ("uv", "probs"), [["a"]]),
    # values a reader would otherwise coerce: a string alphabet split into its
    # letters, numeric strings parsed as floats, non-integer dimensions truncated
    ("design", design_doc, ("uv", "row_labels"), "01"),
    ("channel", lambda: bsc_pair_doc(0.1, 0.1), ("p",),
     json.loads(json.dumps(bsc_pair_doc(0.1, 0.1)["p"]), parse_float=str)),
    ("channel", qubit_cq_doc, ("dim_b",), 2.9),
    ("channel", qubit_cq_doc, ("states", "00", "dim"), 4.5),
    ("channel", qubit_cq_doc, ("states", "00", "entries", 0, 1), [0.0, 0.0, 7.0]),
    # JSON bools among numbers, which numpy would read as 1 and 0: a cq
    # entry, a channel's zero mass and a design's joint that sums to 1
    ("channel", qubit_cq_doc, ("states", "00", "entries", 0, 1), [False, False]),
    ("channel", qubit_cq_doc, ("states", "00", "entries", 0, 0, 1), False),
    ("channel", lambda: bsc_pair_doc(0.1, 0.0), ("p", 0, 0, 1), False),
    ("design", design_doc, ("uv", "probs"), [[0.0, True], [0.0, 0.0]]),
]

# joint files with one malformed field, a nan mass among them
MALFORMED_JOINTS = [(("probs",), [["a", "b"], ["c", "d"]]), (("row_labels",), 3),
                    (("probs",), [[float("nan"), 0.5], [0.25, 0.25]]),
                    (("row_labels",), "01"), (("probs",), [["0.45", "0.05"], ["0.05", "0.45"]]),
                    (("probs",), [[0.5, False], [False, 0.5]])]


class TestMalformedInputFiles:
    """A field of the wrong JSON type in a channel, design or joint file is
    a parse error (exit 3), reported on one line, not a traceback."""

    @staticmethod
    def assert_parse_error(argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name, doc, path, value", MALFORMED_INPUTS)
    def test_simulate(self, tmp_path, outdir, capsys, name, doc, path, value):
        cfg = desk_config(tmp_path)
        write_json(tmp_path / f"{name}.json", _set(doc(), path, value))
        self.assert_parse_error(["simulate", "--config", cfg], capsys)

    @pytest.mark.parametrize("path, value", MALFORMED_JOINTS)
    @pytest.mark.parametrize("command", [["divergence", "--kind", "i0", "--eps", "0.1", "--joint"],
                                         ["iid-curve", "--eps", "0.05", "--n", "1,2", "--base"]])
    def test_joint(self, tmp_path, outdir, capsys, command, path, value):
        joint = write_json(tmp_path / "j.json", _set(DSBS45, path, value))
        self.assert_parse_error(command + [joint], capsys)


class TestParserBehavior:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_parser_is_reused_across_calls(self, capsys):
        bands = ["bands", "--R1", "5", "--R2", "5", "--i0c", "30", "--i-infty", "2",
                 "--eps-tilde", "0.0625", "--i0b"]
        # argparse exits 2 on a bad flag, which the command maps to 3
        assert main(bands + ["30", "--R3", "1"]) == 3
        assert "unrecognized arguments: --R3" in capsys.readouterr().err
        assert main(bands + ["12"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(bands + ["30"]) == 0
        assert json.loads(capsys.readouterr().out)["r1"] == 8
        assert main(["--help"]) == 0
        assert "usage: martonlab" in capsys.readouterr().out
        assert cli._build_parser.cache_info().misses == 1


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in output")


def _float_text(lo, hi):
    """Mostly values in [lo, hi], so that whole runs succeed, else any float text."""
    hostile = (st.floats().map(repr)
               | st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "-1e309", "-0.0"]))
    return st.one_of([st.floats(lo, hi, exclude_min=True).map(repr)] * 4 + [hostile])


_FLOAT_TEXT = _float_text(0.0, 64.0)
_PROB_TEXT = _float_text(0.0, 0.3)
_POWER_TEXT = _PROB_TEXT | st.tuples(_FLOAT_TEXT, _FLOAT_TEXT).map("^".join)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _argv(command, **flags):
    return st.fixed_dictionaries(flags).map(
        lambda d: [command] + [f"--{k.replace('_', '-')}={v}" for k, v in d.items()])


# small codebook sides, trial counts and block sizes keep every run cheap
NUMERIC_FLAG_ARGVS = (
    _argv("region", i0b=_FLOAT_TEXT, i0c=_FLOAT_TEXT, i_infty=_FLOAT_TEXT,
          eps_tilde=_PROB_TEXT, eps0=_PROB_TEXT, eps_infty=_PROB_TEXT, gamma=_PROB_TEXT)
    | _argv("bands", R1=_ints(-2**70, 2**70) | _ints(-1, 8), R2=_ints(-1, 8),
            i0b=_FLOAT_TEXT, i0c=_FLOAT_TEXT, i_infty=_float_text(0.0, 8.0),
            eps_tilde=_float_text(0.0, 0.125))
    | _argv("covering", r=_ints(-2, 64), s=_ints(-2, 64), q=_POWER_TEXT, alpha=_POWER_TEXT,
            trials=_ints(-2, 30), seed=_ints(-2**65, 2**65))
    | _argv("covering", r=_ints(1, 16), s=_ints(1, 16), q=_PROB_TEXT, alpha=_PROB_TEXT,
            trials=_ints(1, 20), i_infty=_FLOAT_TEXT, eps0=_PROB_TEXT).map(
                lambda argv: argv + ["--design", "{design}"])
    | _argv("iid-curve", eps=_PROB_TEXT,
            n=st.lists(st.integers(-1, 24), min_size=1, max_size=3).map(
                lambda ns: ",".join(map(str, ns)))).map(lambda argv: argv + ["--base", "{joint}"])
    | _argv("divergence", eps=_PROB_TEXT, kind=st.sampled_from(["i0", "i-infty"])).map(
        lambda argv: argv + ["--joint", "{joint}"])
)


class TestNumericFlags:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=NUMERIC_FLAG_ARGVS)
    def test_any_flag_value_exits_by_contract(self, tmp_path, outdir, capsys, argv):
        files = {"joint": write_json(tmp_path / "j.json", DSBS40),
                 "design": write_json(tmp_path / "d.json", design_doc(DSBS45))}
        rc = main([a.format(**files) for a in argv])
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3)
        assert rc != 1 or argv[0] == "covering"
        assert "Traceback" not in err
        if rc in (2, 3):
            assert "error: " in err
        if out:
            json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize("argv", [
        ["bands", "--R1", "1", "--R2", "1", "--i0b", "inf", "--i0c", "30",
         "--i-infty", "2", "--eps-tilde", "0.0625"],
        ["region", "--i0b", "nan", "--i0c", "25", "--i-infty", "2",
         "--eps-tilde", "0.0625", "--eps0", "0.01"],
        ["covering", "--r", "8", "--s", "8", "--q", "2^2000", "--alpha", "0.25",
         "--trials", "10"],
        ["covering", "--r", "8", "--s", "8", "--q", "-8^0.5", "--alpha", "0.25",
         "--trials", "10"],
    ])
    def test_non_finite_or_complex_flag_is_parse_error(self, outdir, capsys, argv):
        assert main(argv) == 3
        assert "error: " in capsys.readouterr().err

    # 2^63 and up is refused while parsing, before any array is sized from it
    @pytest.mark.parametrize("argv", [
        ["bands", "--R1", str(10**400), "--R2", "1", "--i0b", "30", "--i0c", "30",
         "--i-infty", "2", "--eps-tilde", "0.0625"],
        ["covering", "--r", str(10**400), "--s", "8", "--q", "0.1", "--alpha", "0.5",
         "--trials", "10", "--family", "independent"],
        ["covering", "--r", "8", "--s", "8", "--q", "0.1", "--alpha", "0.5",
         "--trials", str(10**20)],
        ["covering", "--r", "8", "--s", str(10**20), "--q", "0.1", "--alpha", "0.5",
         "--trials", "10"],
        ["bands", "--R1", "1", "--R2", str(-2**63), "--i0b", "30", "--i0c", "30",
         "--i-infty", "2", "--eps-tilde", "0.0625"],
    ])
    def test_integer_flag_beyond_63_bits_is_parse_error(self, outdir, capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    # 2^62 trials pass parsing; numpy refuses the draw before allocating
    # anything.  Sizes that numpy accepts but memory cannot hold are not
    # run: they would allocate.
    @pytest.mark.parametrize("family", ["paired", "independent"])
    def test_trials_numpy_refuses_is_infeasible(self, outdir, capsys, family):
        assert main(["covering", "--r", "8", "--s", "8", "--q", "0.1", "--alpha", "0.5",
                     "--trials", str(2**62), "--family", family]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot draw") and "Traceback" not in err
