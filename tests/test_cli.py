import json

import pytest

from rdsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_imaged_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--class", "imaged",
                           "--H", "exp(x)", "--F", "-0.25", "--m", "3",
                           "--domain", "x:0.5..3")
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "T1/2"
        assert abs(data["params"]["q"] - 1.0) < 1e-8

    def test_initial_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--class", "initial",
                           "--f", "1", "--g", "1", "--h", "exp(x)",
                           "--m", "3", "--domain", "x:0.5..3")
        assert code == 0
        assert json.loads(out)["case"] == "T3/1.1"

    def test_validation_failure_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--class", "imaged",
                           "--H", "0", "--F", "1", "--m", "3",
                           "--domain", "x:0.5..2")
        assert code == 2
        assert "error" in err

    def test_undefined_coefficient_exit_2(self, capsys):
        code, out, _ = run(capsys, "classify", "--class", "initial",
                           "--f", "1", "--g", "1", "--h", "sqrt(x-1)",
                           "--m", "3", "--domain", "x:0.5..3")
        assert (code, out) == (2, "")

    def test_unknown_flag_exit_64(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["classify", "--bogus", "1"])
        assert e.value.code == 64


class TestMap:
    def test_cosh_to_imaged(self, capsys):
        code, out, _ = run(capsys, "map", "--to", "imaged",
                           "--f", "cosh(x)^2", "--h", "cosh(x)^4",
                           "--m", "3", "--domain", "x:0.5..2.5")
        assert code == 0
        data = json.loads(out)
        assert data["equation"]["F"] == "-1"
        assert data["equation"]["H"] == "1"
        assert "transformation" in data

    def test_trivial_double(self, capsys):
        code, out, _ = run(capsys, "map", "--to", "double", "--F", "0",
                           "--H", "1", "--m", "2", "--domain", "x:0.5..2.5")
        assert code == 0
        data = json.loads(out)
        assert data["equation"]["G"] == "0"
        assert data["equation"]["H"] == "1"

    def test_sign_indefinite_coefficient_exit_2(self, capsys):
        code, _, err = run(capsys, "map", "--to", "imaged",
                           "--f", "cos(x)", "--h", "1", "--m", "3",
                           "--domain", "x:0.5..2.5")
        assert code == 2


class TestVerify:
    def test_lie_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "lie",
                           "--class", "imaged", "--H", "exp(x)", "--F", "-0.25",
                           "--m", "3", "--domain", "x:0.5..3",
                           "--op", "0;1;-0.5*v")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_lie_fail_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "lie",
                           "--class", "imaged", "--H", "exp(x)", "--F", "-0.25",
                           "--m", "3", "--domain", "x:0.5..3",
                           "--op", "0;1;0.5*v")
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert data["reports"][0]["worst_point"] is not None

    def test_nonclassical_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "nonclassical",
                           "--class", "imaged", "--H", "-1", "--F", "0",
                           "--m", "3", "--domain", "x:0.5..2.5",
                           "--op", "1;-3/x;-3*v/x^2")
        assert code == 0

    def test_algebra(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "algebra",
                           "--class", "imaged", "--H", "1", "--F", "0",
                           "--m", "3", "--domain", "x:0.5..2.5",
                           "--op", "1;0;0", "--op", "0;1;0",
                           "--op", "2*t;x;-v")
        assert code == 0
        assert json.loads(out)["closed"] is True

    def test_solution_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "solution",
                           "--class", "imaged", "--H", "-1", "--F", "0",
                           "--m", "3", "--domain", "x:0.5..2.5",
                           "--solution", "1.4142135623730951/x")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_solution_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "solution",
                           "--class", "imaged", "--H", "-1", "--F", "0",
                           "--m", "3", "--domain", "x:0.5..2.5",
                           "--solution", "1.41*x")
        assert code == 1


class TestCatalog:
    def test_list_with_filter(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--filter", "m=2")
        assert code == 0
        data = json.loads(out)
        assert data
        assert all(d["equation"].get("m", 2) == 2 for d in data)

    def test_list_full(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert len(json.loads(out)) >= 40

    def test_verify_subset(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify-all",
                           "--filter", "name=imaged/", "--bindings", "1")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == []

    def test_verify_empty_filter(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify-all", "--filter", "name=no-such-entry")
        assert code == 0
        data = json.loads(out)
        assert (data["entries"], data["max_rel_residual"], data["failures"]) == (0, 0.0, [])


def test_seed_changes_sample_points(capsys, monkeypatch):
    import rdsym.sampling as sampling

    monkeypatch.delenv("RDSYM_SEED", raising=False)
    sampling._halton_cached.cache_clear()
    before = sampling.halton_points(2, 4)
    monkeypatch.setenv("RDSYM_SEED", "7")
    sampling._halton_cached.cache_clear()
    after = sampling.halton_points(2, 4)
    monkeypatch.delenv("RDSYM_SEED")
    sampling._halton_cached.cache_clear()
    assert before != after
    assert before == sampling.halton_points(2, 4)


@pytest.mark.parametrize("seed", ["-200", "1.5"])
def test_bad_seed_rejected(monkeypatch, seed):
    import rdsym.sampling as sampling

    monkeypatch.setenv("RDSYM_SEED", seed)
    with pytest.raises(ValueError, match="RDSYM_SEED"):
        sampling.halton_points(2, 4)


def test_map_general_to_gauged(capsys):
    code = main(["map", "--to", "gauged", "--f", "exp(x)", "--g", "exp(-x)",
                 "--h", "x^2 + 1", "--m", "3", "--x0", "0.5",
                 "--domain", "x:0.2..1.5"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["equation"]["f"] == data["equation"]["g"]


def test_map_numeric_fallback_serializes(capsys):
    code = main(["map", "--to", "gauged", "--f", "1 + x^2", "--g", "1",
                 "--h", "1", "--m", "3", "--x0", "1.0",
                 "--domain", "x:0.3..1.8"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert "<tabulated>" in json.dumps(data)


def test_map_gauge_with_a_sign_fixed_by_the_domain(capsys):
    # sqrt(f/g) = sqrt(x^2) is x on x > 0
    code = main(["map", "--to", "gauged", "--f", "x^2", "--g", "1",
                 "--h", "x^4", "--m", "2", "--domain", "x:0.5..2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["equation"]["f"] == data["equation"]["g"]
    assert "abs" not in data["equation"]["f"]
    assert data["transformation"]["T"] == "t"
    assert data["transformation"]["inverse"]["T"] == "t"
