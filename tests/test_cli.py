import json

import pytest

from pefkit.cli import EXIT_ALIGN, EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main


def run(argv):
    return main([str(a) for a in argv])


def gen(tmp_path, setting="equal_uniform", support=4, samples=500, seed=0, extra=()):
    out = tmp_path / "gen"
    code = run(
        [
            "generate",
            "--setting",
            setting,
            "--support",
            support,
            "--samples",
            samples,
            "--seed",
            seed,
            "--out-dir",
            out,
            *extra,
        ]
    )
    assert code == EXIT_OK
    return out


class TestGenerate:
    def test_outputs_exist(self, tmp_path, capsys):
        out = gen(tmp_path)
        assert (out / "samples.csv").exists()
        assert (out / "true_dists.json").exists()
        sidecar = json.loads((out / "run_config.json").read_text())
        assert sidecar["subcommand"] == "generate"
        assert sidecar["config"]["seed"] == 0
        assert "wrote 1000 samples" in capsys.readouterr().out

    def test_bad_setting_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["generate", "--setting", "bogus", "--out-dir", tmp_path])

    def test_bad_group_count(self, tmp_path):
        code = run(
            [
                "generate",
                "--setting",
                "equal_uniform",
                "--groups",
                1,
                "--out-dir",
                tmp_path,
            ]
        )
        assert code == EXIT_CONFIG


class TestErase:
    def test_equal_branch_end_to_end(self, tmp_path, capsys):
        out = gen(tmp_path)
        erased = tmp_path / "erased"
        code = run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--dists",
                out / "true_dists.json",
                "--out-dir",
                erased,
            ]
        )
        assert code == EXIT_OK
        assert "branch=equal" in capsys.readouterr().out
        fn = json.loads((erased / "function.json").read_text())
        assert fn["variant"] == "deterministic"
        report = json.loads((erased / "report.json").read_text())
        assert report["i_za_analytic"] == pytest.approx(0.0, abs=1e-12)
        assert report["i_zx_analytic"] == pytest.approx(2.0, abs=1e-9)

    def test_unequal_branch(self, tmp_path, capsys):
        out = gen(tmp_path, setting="unequal", seed=3)
        erased = tmp_path / "erased"
        code = run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--dists",
                out / "true_dists.json",
                "--out-dir",
                erased,
            ]
        )
        assert code == EXIT_OK
        assert "branch=unequal" in capsys.readouterr().out
        fn = json.loads((erased / "function.json").read_text())
        assert fn["variant"] == "stochastic"

    def test_estimation_path_without_dists(self, tmp_path):
        out = gen(tmp_path, samples=2000)
        erased = tmp_path / "erased"
        code = run(
            ["erase", "--samples", out / "samples.csv", "--out-dir", erased]
        )
        assert code == EXIT_OK

    def test_missing_samples_is_io_error(self, tmp_path):
        code = run(
            ["erase", "--samples", tmp_path / "nope.csv", "--out-dir", tmp_path]
        )
        assert code == EXIT_IO

    def test_overlapping_supports_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,concept\n0,0\n0,1\n1,0\n2,1\n")
        code = run(["erase", "--samples", bad, "--out-dir", tmp_path])
        assert code == EXIT_DATA

    def test_sample_symbol_outside_dists_is_align_error(self, tmp_path, capsys):
        out = gen(tmp_path)
        with open(out / "samples.csv", "a") as fh:
            fh.write("9999,0\n")
        code = run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--dists",
                out / "true_dists.json",
                "--out-dir",
                tmp_path / "erased",
            ]
        )
        assert code == EXIT_ALIGN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "first 9999" in err

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--bo-acq-candidates", "n_acq_candidates must be >= 1"),
            ("--bo-budget", "budget"),
            ("--bo-kappa=nan", "kappa must be finite"),
            ("--bo-kappa=inf", "kappa must be finite"),
        ],
    )
    def test_zero_bo_setting_is_config_error(self, tmp_path, capsys, flag, message):
        # A flag without "=value" is set to 0.
        setting = [flag] if "=" in flag else [flag, 0]
        out = gen(tmp_path, setting="unequal")
        argv = ["--samples", out / "samples.csv", "--dists", out / "true_dists.json"]
        capsys.readouterr()
        code = run(["erase", *argv, "--use-bo", *setting, "--out-dir", tmp_path / "erased"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_bo_settings_unused_without_use_bo(self, tmp_path):
        # Without --use-bo no GP-UCB runs, so its settings are neither
        # validated nor recorded.
        out = gen(tmp_path, setting="unequal")
        erased = tmp_path / "erased"
        code = run(["erase", "--samples", out / "samples.csv", "--dists", out / "true_dists.json",
                    "--bo-budget", 0, "--out-dir", erased])
        assert code == EXIT_OK
        config = json.loads((erased / "run_config.json").read_text())["config"]
        assert config["bo"] is None and config["use_bo"] is False

    @pytest.mark.parametrize("support", [[0.4, 1.4, 2.4, 3.4], ["0", "1", "2", "3"]],
                             ids=["fractional", "string"])
    def test_non_integer_dists_support_is_config_error(self, tmp_path, capsys, support):
        # int() once truncated 0.4 to 0 and parsed "0", so the run exited 0.
        out = gen(tmp_path, setting="unequal")
        obj = json.loads((out / "true_dists.json").read_text())
        obj["groups"][0]["dist"]["support"] = support
        (out / "bad_dists.json").write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(["erase", "--samples", out / "samples.csv", "--dists", out / "bad_dists.json",
                    "--out-dir", tmp_path / "erased"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "symbol ids must be integers" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_not_finite_and_non_negative_is_config_error(self, tmp_path, capsys, tol):
        # A NaN or infinite tol would pass every group as permutation-equal,
        # sending unequal groups down the leaking deterministic branch.
        out = gen(tmp_path, setting="unequal", support=20, samples=2000, seed=1)
        for dists in (["--dists", out / "true_dists.json"], []):
            capsys.readouterr()
            code = run(["erase", "--samples", out / "samples.csv", *dists,
                        "--tol", tol, "--out-dir", tmp_path / "erased"])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "tol must be finite and >= 0" in err


class TestMalformedSamples:
    VALID = "x,concept\n0,0\n1,0\n0,0\n2,1\n3,1\n"

    def erase(self, tmp_path, text, *extra):
        path = tmp_path / "s.csv"
        path.write_text(text)
        return run(
            ["erase", "--samples", path, "--out-dir", tmp_path / "erased", *extra]
        )

    def test_header_only_is_data_error(self, tmp_path):
        assert self.erase(tmp_path, "x,concept\n") == EXIT_DATA

    def test_blank_line_is_skipped(self, tmp_path):
        head, tail = self.VALID.split("1,0\n")
        assert self.erase(tmp_path, head + "1,0\n\n" + tail) == EXIT_OK
        rows = (tmp_path / "erased" / "erased.csv").read_text().splitlines()
        assert len(rows) == 1 + 5

    @pytest.mark.parametrize(
        "row", ["1.5,0", "1,0,0", "-1,0"], ids=["float", "three_fields", "negative"]
    )
    def test_bad_row_is_config_error(self, tmp_path, row):
        assert self.erase(tmp_path, self.VALID + row + "\n") == EXIT_CONFIG

    def test_wrong_header_is_config_error(self, tmp_path):
        text = self.VALID.replace("x,concept", "z,concept")
        assert self.erase(tmp_path, text) == EXIT_CONFIG

    def test_negative_seed_is_config_error(self, tmp_path):
        # --tol 0 forces the stochastic branch, the one that draws uniforms.
        assert self.erase(tmp_path, self.VALID, "--tol", 0) == EXIT_OK
        assert self.erase(tmp_path, self.VALID, "--tol", 0, "--seed", -1) == EXIT_CONFIG


def _first_row(obj):
    return obj["rows"][min(obj["rows"], key=int)]


def _set_first_row(support, probs):
    def mutate(obj):
        _first_row(obj).update(support=support(obj), probs=probs)
    return mutate


def _last_output_outside(obj):
    _first_row(obj)["support"][-1] = 10**6


def _map_one_symbol_twice(obj):
    obj["group_maps"]["2"] = dict([next(iter(obj["group_maps"]["0"].items()))])


def _uniform_q(support):
    def mutate(obj):
        symbols = support(obj)
        obj["q"] = {"support": symbols, "probs": [1.0 / len(symbols)] * len(symbols)}
    return mutate


def _scale_first_row(obj):
    row = _first_row(obj)
    row["probs"] = [p * 1.1 for p in row["probs"]]


def _shift_output_support(obj):
    obj["output_support"] = [s + 0.9 for s in obj["output_support"]]


def _shift_first_row(obj):
    row = _first_row(obj)
    row["support"] = [s + 0.5 for s in row["support"]]


def _shift_one_map_value(obj):
    m = obj["group_maps"]["0"]
    m[min(m, key=int)] += 0.5


def _rename_first_row(key):
    def mutate(obj):
        first = min(obj["rows"], key=int)
        obj["rows"][key(first)] = obj["rows"].pop(first)
    return mutate


def _pad_one_map_key(obj):
    m = obj["group_maps"]["0"]
    first = min(m, key=int)
    m[f" {first}"] = m.pop(first)


def _pad_one_concept_key(obj):
    obj["group_maps"]["+0"] = obj["group_maps"].pop("0")


class TestMalformedFunction:
    # The setting of the generated data (unequal: stochastic, equal_uniform:
    # deterministic), the edit that breaks its function.json, and the error.
    CASES = {
        "output_outside_support": ("unequal", _last_output_outside, "outside output_support"),
        "missing_rows": ("unequal", lambda obj: obj.pop("rows"), "KeyError('rows')"),
        "empty_output_support": (
            "unequal", lambda obj: obj.update(output_support=[]), "output_support must be"
        ),
        "bogus_variant": ("unequal", lambda obj: obj.update(variant="bogus"), "'bogus'"),
        "input_symbol_twice": (
            "equal_uniform", _map_one_symbol_twice, "has more than one row"
        ),
        "repeated_output": (
            "unequal",
            _set_first_row(lambda obj: obj["output_support"][:1] * 2, [0.5, 0.5]),
            "twice",
        ),
        "negative_output": (
            "unequal", _set_first_row(lambda obj: [-1], [1.0]), "output -1 outside"
        ),
        "negative_probability": (
            "unequal",
            _set_first_row(lambda obj: obj["output_support"][:2], [1.5, -0.5]),
            "non-negative",
        ),
        "row_mass_off": ("unequal", _scale_first_row, "sums to 1.1"),
        # A q over fresh symbols once made evaluate report a positive J.
        "q_outside_output_support": (
            "unequal",
            _uniform_q(lambda obj: [max(obj["output_support"]) + 1 + i for i in range(4)]),
            "q has symbol",
        ),
        "q_not_the_pushforward": (
            "unequal",
            _uniform_q(lambda obj: obj["output_support"]),
            "differs from the pushforward of group",
        ),
        # Fractional ids were once truncated to the ids they were shifted from.
        "fractional_output_support": ("unequal", _shift_output_support, "must be integers"),
        "fractional_row_output": ("unequal", _shift_first_row, "must be integers"),
        "fractional_map_value": ("equal_uniform", _shift_one_map_value, "must be integers"),
        # int() alone read a row key "1_0" as 10 and " 3" as 3.
        "underscored_row_key": (
            "unequal", _rename_first_row(lambda k: f"1_{k}"), "not an integer in canonical form"
        ),
        "padded_row_key": (
            "unequal", _rename_first_row(lambda k: f" {k}"), "not an integer in canonical form"
        ),
        "zero_led_row_key": (
            "unequal", _rename_first_row(lambda k: f"0{k}"), "not an integer in canonical form"
        ),
        "padded_map_key": ("equal_uniform", _pad_one_map_key, "not an integer in canonical form"),
        "signed_concept_key": (
            "equal_uniform", _pad_one_concept_key, "not an integer in canonical form"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_config_error(self, tmp_path, capsys, case):
        setting, mutate, message = self.CASES[case]
        out = gen(tmp_path, setting=setting)
        erased = tmp_path / "erased"
        argv = ["--samples", out / "samples.csv", "--dists", out / "true_dists.json"]
        assert run(["erase", *argv, "--out-dir", erased]) == EXIT_OK
        obj = json.loads((erased / "function.json").read_text())
        mutate(obj)
        (erased / "function.json").write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(
            [
                "evaluate",
                "--dists",
                out / "true_dists.json",
                "--function",
                erased / "function.json",
                "--erased",
                erased / "erased.csv",
                "--samples",
                out / "samples.csv",
                "--out-dir",
                tmp_path / "eval",
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestEvaluate:
    def test_end_to_end(self, tmp_path, capsys):
        out = gen(tmp_path)
        erased = tmp_path / "erased"
        run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--dists",
                out / "true_dists.json",
                "--out-dir",
                erased,
            ]
        )
        ev_dir = tmp_path / "eval"
        code = run(
            [
                "evaluate",
                "--dists",
                out / "true_dists.json",
                "--function",
                erased / "function.json",
                "--erased",
                erased / "erased.csv",
                "--samples",
                out / "samples.csv",
                "--out-dir",
                ev_dir,
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "pef/analytic" in captured and "pef/plugin" in captured
        assert (ev_dir / "funnel.csv").exists()
        assert (ev_dir / "tradeoff.csv").exists()
        assert (ev_dir / "report.json").exists()

    def test_misaligned_is_align_error(self, tmp_path):
        out = gen(tmp_path)
        erased = tmp_path / "erased"
        run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--dists",
                out / "true_dists.json",
                "--out-dir",
                erased,
            ]
        )
        short = tmp_path / "short.csv"
        lines = (erased / "erased.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:-1]) + "\n")
        code = run(
            [
                "evaluate",
                "--dists",
                out / "true_dists.json",
                "--function",
                erased / "function.json",
                "--erased",
                short,
                "--samples",
                out / "samples.csv",
                "--out-dir",
                tmp_path,
            ]
        )
        assert code == EXIT_ALIGN

    def test_unsampled_symbol_is_align_error(self, tmp_path, capsys):
        # 20 samples per group cannot cover 50 symbols, so the map estimated
        # from the samples lacks rows for symbols of the true distributions.
        out = gen(tmp_path, setting="unequal", support=50, samples=20)
        erased = tmp_path / "erased"
        code = run(
            [
                "erase",
                "--samples",
                out / "samples.csv",
                "--tol",
                0,
                "--out-dir",
                erased,
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        code = run(
            [
                "evaluate",
                "--dists",
                out / "true_dists.json",
                "--function",
                erased / "function.json",
                "--erased",
                erased / "erased.csv",
                "--samples",
                out / "samples.csv",
                "--out-dir",
                tmp_path / "eval",
            ]
        )
        assert code == EXIT_ALIGN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing from the erasure function" in err


    def test_erased_symbol_outside_output_support_is_align_error(self, tmp_path, capsys):
        out = gen(tmp_path, setting="unequal", support=6, samples=50)
        erased = tmp_path / "erased"
        code = run(["erase", "--samples", out / "samples.csv", "--dists",
                    out / "true_dists.json", "--out-dir", erased])
        assert code == EXIT_OK
        header, first, *rest = (erased / "erased.csv").read_text().splitlines()
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join([header, "999999," + first.split(",")[1], *rest]) + "\n")
        capsys.readouterr()
        code = run(["evaluate", "--dists", out / "true_dists.json", "--function",
                    erased / "function.json", "--erased", edited, "--samples",
                    out / "samples.csv", "--out-dir", tmp_path / "eval"])
        assert code == EXIT_ALIGN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "output_support" in err and "999999" in err
        assert not (tmp_path / "eval").exists()


class TestUtilities:
    def test_funnel(self, tmp_path, capsys):
        out = gen(tmp_path)
        code = run(
            [
                "funnel",
                "--dists",
                out / "true_dists.json",
                "--points",
                11,
                "--out-dir",
                tmp_path / "funnel",
            ]
        )
        assert code == EXIT_OK
        assert "H(X)=3.0000" in capsys.readouterr().out
        lines = (tmp_path / "funnel" / "funnel.csv").read_text().splitlines()
        assert len(lines) == 12

    def test_mec_greedy_and_oracle(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"support": [0, 1], "probs": [0.6, 0.4]}))
        q.write_text(json.dumps({"support": [2, 3], "probs": [0.5, 0.5]}))
        for extra in ([], ["--oracle"]):
            code = run(
                ["mec", "--p", p, "--q", q, "--out-dir", tmp_path / "mec", *extra]
            )
            assert code == EXIT_OK
            assert "coupling entropy 1.36096 bits" in capsys.readouterr().out

    def test_mec_too_large_is_config_error(self, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"support": list(range(6)), "probs": [1 / 6] * 6}))
        q.write_text(
            json.dumps({"support": list(range(10, 16)), "probs": [1 / 6] * 6})
        )
        code = run(
            [
                "mec",
                "--p",
                p,
                "--q",
                q,
                "--oracle",
                "--max-cells",
                20,
                "--out-dir",
                tmp_path,
            ]
        )
        assert code == EXIT_CONFIG

    def test_pic(self, tmp_path, capsys):
        out = gen(tmp_path)
        code = run(
            ["pic", "--dists", out / "true_dists.json", "--out-dir", tmp_path / "pic"]
        )
        assert code == EXIT_OK
        obj = json.loads((tmp_path / "pic" / "pic.json").read_text())
        assert obj["feasible"] is True
        assert obj["singular_values"][0] == pytest.approx(1.0, abs=1e-9)
        assert "feasible=True" in capsys.readouterr().out
