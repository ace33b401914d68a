import json
import math
import warnings

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


def write_dists(path, supports):
    """A --dists file with one uniform group per support, concepts 0, 1, ..."""
    path.write_text(json.dumps({"priors": [1.0 / len(supports)] * len(supports), "groups": [
        {"concept": c, "dist": {"support": s, "probs": [1.0 / len(s)] * len(s)}}
        for c, s in enumerate(supports)
    ]}))
    return path


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

    @pytest.mark.parametrize("setting,alpha", [("unequal", 0), ("unequal", "nan"),
                                               ("equal_uniform", -1)])
    def test_bad_dirichlet_alpha_is_config_error(self, tmp_path, capsys, setting, alpha):
        out = tmp_path / "gen"
        code = run(["generate", "--setting", setting, "--dirichlet-alpha", alpha,
                    "--out-dir", out])
        assert code == EXIT_CONFIG
        assert "dirichlet_alpha must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "groups,message",
        [
            ([[0, 1], [1, 2]], "group supports must be pairwise disjoint"),
            ([[0, 1, 2]], "need at least two concept groups"),
        ],
    )
    def test_dists_build_pef_rejects(self, tmp_path, capsys, groups, message):
        dists = write_dists(tmp_path / "dists.json", groups)
        samples = tmp_path / "s.csv"
        samples.write_text("x,concept\n0,0\n1,0\n")
        argv = ["erase", "--samples", samples, "--dists", dists, "--out-dir", tmp_path / "erased"]
        if len(groups) > 1:
            with pytest.warns(UserWarning, match="A4 violated"):
                code = run(argv)
        else:
            code = run(argv)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "erased").exists()

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

    @pytest.mark.parametrize("dists", [True, False], ids=["dists", "estimated"])
    def test_sample_under_another_concept_is_data_error(self, tmp_path, capsys, dists):
        # 20 concept-0 rows relabelled as concept 1: their symbols belong to
        # group 0, on the --dists path as on the estimating one.
        out = gen(tmp_path, setting="unequal", support=5, samples=50, seed=1)
        lines = (out / "samples.csv").read_text().splitlines()
        moved = 0
        for i, line in enumerate(lines[1:], start=1):
            x, concept = line.split(",")
            if concept == "0" and moved < 20:
                lines[i], moved = f"{x},1", moved + 1
        (out / "samples.csv").write_text("\n".join(lines) + "\n")
        argv = ["erase", "--samples", out / "samples.csv", "--out-dir", tmp_path / "erased"]
        code = run(argv + (["--dists", out / "true_dists.json"] if dists else []))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "appears under concept" in err
        assert not (tmp_path / "erased").exists()

    @pytest.mark.parametrize("flags", [["--use-bo"], ["--tol", "nan"]], ids=["bo", "nan_tol"])
    def test_sample_under_another_concept_fails_before_the_build(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        # One concept-0 row relabelled as concept 1 is rejected before any
        # Q search, and before the build rejects the tol.
        def no_search(*args):
            raise AssertionError("searched for Q before checking the samples")

        monkeypatch.setattr("pefkit.pef.select_q", no_search)
        out = gen(tmp_path, setting="unequal", support=5, samples=50, seed=1)
        lines = (out / "samples.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.endswith(",0"))
        lines[i] = lines[i].split(",")[0] + ",1"
        (out / "samples.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["erase", "--samples", out / "samples.csv", "--dists", out / "true_dists.json",
                    *flags, "--out-dir", tmp_path / "erased"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "appears under concept 1 but belongs to concept 0" in err
        assert not (tmp_path / "erased").exists()

    def test_sample_check_precedes_the_group_count(self, tmp_path, capsys):
        dists = write_dists(tmp_path / "dists.json", [[0, 1, 2]])
        samples = tmp_path / "s.csv"
        samples.write_text("x,concept\n0,0\n1,1\n")
        code = run(["erase", "--samples", samples, "--dists", dists, "--out-dir", tmp_path])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "symbol 1 appears under concept 1" in err

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--bo-acq-candidates", "n_acq_candidates must be >= 1"),
            ("--bo-budget", "budget"),
        ],
    )
    def test_zero_bo_setting_is_config_error(self, tmp_path, capsys, flag, message):
        out = gen(tmp_path, setting="unequal")
        argv = ["--samples", out / "samples.csv", "--dists", out / "true_dists.json"]
        capsys.readouterr()
        code = run(["erase", *argv, "--use-bo", flag, 0, "--out-dir", tmp_path / "erased"])
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

    def test_use_bo_is_deterministic(self, tmp_path, monkeypatch):
        # Two GP-UCB erases of one input write the same bytes to every file.
        gen(tmp_path, setting="unequal", support=6, seed=4)
        argv = ["--samples", "../gen/samples.csv", "--dists", "../gen/true_dists.json",
                "--use-bo", "--bo-budget", 20, "--out-dir", "erased"]
        outputs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run(["erase", *argv]) == EXIT_OK
            root = tmp_path / name / "erased"
            outputs.append({p.name: p.read_bytes() for p in sorted(root.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        assert "function.json" in outputs[0]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between identical runs"
        config = json.loads(outputs[0]["run_config.json"])["config"]
        assert config["use_bo"] is True and config["bo"]["budget"] == 20
        assert config["bo"].keys() == {"budget", "n_acq_candidates", "seed"}

    @pytest.mark.parametrize(
        "support",
        [[0.4, 1.4, 2.4, 3.4], ["0", "1", "2", "3"], [False, True, 2, 3]],
        ids=["fractional", "string", "bool"],
    )
    def test_non_integer_dists_support_is_config_error(self, tmp_path, capsys, support):
        # int() once truncated 0.4 to 0 and parsed "0", and operator.index
        # read false as 0, so the run exited 0.
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


def _set_in_group(index, *keys, value):
    """An edit of a distributions object that sets one entry of a group."""
    def mutate(obj):
        entry = obj["groups"][index]
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        return obj
    return mutate


def _drop_first_dist(obj):
    del obj["groups"][0]["dist"]
    return obj


def _add_group_at_int64_limit(obj):
    """A third group, unsampled, whose one symbol is the largest int64."""
    obj["groups"].append({"concept": 2, "dist": {"support": [2**63 - 1], "probs": [1.0]}})
    obj["priors"].append(0.0)
    return obj


class TestMalformedDists:
    # The subcommand that reads the file, the edit that breaks a valid
    # true_dists.json (for mec, the first group's dist as --p), and the error.
    CASES = {
        # Each of these once ended in a traceback and exit 1.
        "no_groups_no_priors": ("funnel", lambda obj: {"groups": []}, "KeyError('priors')"),
        "top_level_list": ("funnel", lambda obj: [obj], "TypeError"),
        "group_without_dist": ("funnel", _drop_first_dist, "KeyError('dist')"),
        "group_without_dist_erase": ("erase", _drop_first_dist, "KeyError('dist')"),
        "p_without_probs": ("mec", lambda obj: {"support": obj["support"]}, "KeyError('probs')"),
        "p_top_level_list": ("mec", lambda obj: [obj], "TypeError"),
        # These once loaded as concept 1 and probabilities 0.25 and 1.
        "bool_concept": ("erase", _set_in_group(1, "concept", value=True), "concept ids must be"),
        "string_probs": (
            "erase", _set_in_group(0, "dist", "probs", value=["0.25"] * 4), "probs must be numbers"
        ),
        "bool_probs": (
            "erase",
            _set_in_group(0, "dist", "probs", value=[True, False, False, False]),
            "probs must be numbers, got bool",
        ),
        "mixed_bool_probs": (
            "erase",
            _set_in_group(0, "dist", "probs", value=[0.0, True, 0.0, 0.0]),
            "probs must be numbers, got bool",
        ),
        "string_priors": (
            "funnel", lambda obj: {**obj, "priors": ["0.5", "0.5"]}, "priors must be numbers"
        ),
        # These once passed: a NaN probability dropped its symbol, and a NaN
        # prior made every prior NaN.
        "nan_probs": (
            "funnel", _set_in_group(0, "dist", "probs", 0, value=math.nan), "must be finite"
        ),
        "nan_priors": ("funnel", lambda obj: {**obj, "priors": [math.nan, 1.0]}, "must be finite"),
        # An id past int64 once crashed erase with an OverflowError (exit 1),
        # while funnel and pic accepted it.
        **{
            f"id_past_int64_{command}": (
                command,
                _set_in_group(0, "dist", "support", -1, value=2**63),
                "symbol ids must be integers from -2**63 to 2**63 - 1, got 9223372036854775808",
            )
            for command in ("erase", "funnel", "pic")
        },
        # Valid, but the fresh output ids after it would pass int64.
        "id_at_int64_limit": ("erase", _add_group_at_int64_limit, "pass the int64 limit"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_config_error(self, tmp_path, capsys, case):
        command, mutate, message = self.CASES[case]
        out = gen(tmp_path, setting="unequal")
        dists = json.loads((out / "true_dists.json").read_text())
        bad = tmp_path / "bad.json"
        if command == "mec":
            (tmp_path / "q.json").write_text(json.dumps(dists["groups"][1]["dist"]))
            bad.write_text(json.dumps(mutate(dists["groups"][0]["dist"])))
            argv = ["mec", "--p", bad, "--q", tmp_path / "q.json"]
        else:
            bad.write_text(json.dumps(mutate(dists)))
            argv = [command, "--dists", bad]
            if command == "erase":
                argv += ["--samples", out / "samples.csv"]
        capsys.readouterr()
        assert run([*argv, "--out-dir", tmp_path / "run"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestMalformedSamples:
    VALID = "x,concept\n0,0\n1,0\n0,0\n2,1\n3,1\n"

    def erase(self, tmp_path, text, *extra):
        path = tmp_path / "s.csv"
        path.write_text(text)
        return run(
            ["erase", "--samples", path, "--out-dir", tmp_path / "erased", *extra]
        )

    def test_header_only_is_data_error(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # np.loadtxt warns on an empty body
            assert self.erase(tmp_path, "x,concept\n") == EXIT_DATA
        assert not caught
        assert capsys.readouterr().err.startswith("data constraint violated")

    @pytest.mark.parametrize("with_dists", [False, True])
    def test_header_only_erase_writes_nothing(self, tmp_path, capsys, with_dists):
        extra = ["--dists", write_dists(tmp_path / "d.json", [[0, 1], [2, 3]])] if with_dists else []
        assert self.erase(tmp_path, "x,concept\n", *extra) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty sample set" in err
        assert not (tmp_path / "erased").exists()

    def test_blank_line_is_skipped(self, tmp_path):
        head, tail = self.VALID.split("1,0\n")
        assert self.erase(tmp_path, head + "1,0\n\n" + tail) == EXIT_OK
        rows = (tmp_path / "erased" / "erased.csv").read_text().splitlines()
        assert len(rows) == 1 + 5

    @pytest.mark.parametrize(
        "spelling",
        [
            VALID.replace("\n0,0", "\n-0,0", 1),
            VALID.replace("\n1,0", "\n001,0").replace("\n3,1", "\n3,0001"),
            VALID[:-1],
            VALID.replace("\n", "\r\n"),
            VALID.replace("\n2,1", "\n \t\n2,1"),
            VALID.replace("\n1,0", "\n 1 , 0"),
            VALID.replace("\n2,1", "\n+2,+1"),
        ],
        ids=["minus_zero", "leading_zeros", "no_final_newline", "crlf", "whitespace_line",
             "spaces_around_fields", "leading_plus"],
    )
    def test_other_spelling_reads_the_same_values(self, tmp_path, spelling):
        (tmp_path / "valid").mkdir()
        assert self.erase(tmp_path / "valid", self.VALID) == EXIT_OK
        assert self.erase(tmp_path, spelling) == EXIT_OK
        for name in ("erased.csv", "function.json", "report.json"):
            got = (tmp_path / "erased" / name).read_bytes()
            assert got == (tmp_path / "valid" / "erased" / name).read_bytes()

    @pytest.mark.parametrize(
        "row",
        ["1.5,0", "1,0,0", "-1,0", "9223372036854775808,0", "-,0", "1,-", "--1,0"],
        ids=["float", "three_fields", "negative", "19_digits", "lone_minus",
             "trailing_minus", "double_minus"],
    )
    def test_bad_row_is_config_error(self, tmp_path, row):
        assert self.erase(tmp_path, self.VALID + row + "\n") == EXIT_CONFIG

    def test_wrong_header_is_config_error(self, tmp_path):
        text = self.VALID.replace("x,concept", "z,concept")
        assert self.erase(tmp_path, text) == EXIT_CONFIG

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["minus_one", "two_to_128"])
    @pytest.mark.parametrize("tol,branch", [(None, "equal"), (0, "unequal")], ids=["equal", "unequal"])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, tol, branch, seed):
        # Only the unequal branch draws uniforms (from Philox, keyed by the
        # seed), yet both reject a seed outside Philox's key range.
        extra = [] if tol is None else ["--tol", tol]
        (tmp_path / "ok").mkdir()
        assert self.erase(tmp_path / "ok", self.VALID, *extra, "--seed", 2**128 - 1) == EXIT_OK
        assert f"branch={branch}" in capsys.readouterr().out
        assert self.erase(tmp_path, self.VALID, *extra, "--seed", seed) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"seed must be in [0, 2**128), got {seed}" in err
        assert not (tmp_path / "erased").exists()


def _first_row(obj):
    """The cells of the first row (the smallest id) of a function.json."""
    return slice(0, obj["bounds"][1])


def _set_first_row(out, probs):
    def mutate(obj):
        cells = _first_row(obj)
        obj["out"][cells], obj["probs"][cells] = out(obj), probs
        shift = len(probs) - cells.stop
        obj["bounds"][1:] = [b + shift for b in obj["bounds"][1:]]
    return mutate


def _uniform_q(support):
    def mutate(obj):
        symbols = support(obj)
        obj["q"] = {"support": symbols, "probs": [1.0 / len(symbols)] * len(symbols)}
    return mutate


def _scale_first_row(obj):
    cells = _first_row(obj)
    obj["probs"][cells] = [p * 1.1 for p in obj["probs"][cells]]


def _shift_output_support(obj):
    obj["output_support"] = [s + 0.9 for s in obj["output_support"]]


def _overflow_output_support(obj):
    obj["output_support"][-1] = 2**63


def _shift_first_output(obj):
    obj["out"][0] += 0.5


def _last_output_outside(obj):
    obj["out"][-1] = 10**6


def _repeat_first_id(obj):
    obj["ids"][1] = obj["ids"][0]


def _float_first_id(obj):
    obj["ids"][0] += 0.0


def _extend_bounds_past_out(obj):
    obj["bounds"][-1] += 1


def _start_bounds_at_1(obj):
    obj["bounds"][0] = 1


def _drop_one_bound(obj):
    obj["bounds"].pop(1)


def _as_group_maps(obj):
    """Rewrite an equal_uniform function.json of two groups in the format that
    held a deterministic function before the table: per-concept bijections."""
    ids, out = obj.pop("ids"), obj.pop("out")
    del obj["bounds"], obj["probs"]
    half = len(ids) // 2
    obj["group_maps"] = {
        str(c): {str(x): z for x, z in zip(ids[rows], out[rows])}
        for c, rows in enumerate((slice(0, half), slice(half, None)))
    }


class TestMalformedFunction:
    # The setting of the generated data (unequal: stochastic, equal_uniform:
    # deterministic), the edit that breaks its function.json, and the error.
    CASES = {
        "output_outside_support": ("unequal", _last_output_outside, "outside output_support"),
        "missing_ids": ("unequal", lambda obj: obj.pop("ids"), "KeyError('ids')"),
        "empty_output_support": (
            "unequal", lambda obj: obj.update(output_support=[]), "output_support must be"
        ),
        "bogus_variant": ("unequal", lambda obj: obj.update(variant="bogus"), "'bogus'"),
        "input_symbol_twice": ("equal_uniform", _repeat_first_id, "has more than one row"),
        "repeated_id": ("unequal", _repeat_first_id, "has more than one row"),
        # Written as 0.0: an id of 1.0 is no more an integer than one of 1.4.
        "float_id": ("unequal", _float_first_id, "ids must be integers"),
        "bounds_past_len_out": ("unequal", _extend_bounds_past_out, "run from 0 to len(out)"),
        "bounds_not_from_0": ("unequal", _start_bounds_at_1, "run from 0 to len(out)"),
        "bounds_one_short": ("unequal", _drop_one_bound, "bounds must have len(ids) + 1"),
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
        # It was once reported as negative.
        "nan_probability": (
            "unequal",
            _set_first_row(lambda obj: obj["output_support"][:2], [math.nan, 1.0]),
            "must be finite and non-negative",
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
        "fractional_row_output": ("unequal", _shift_first_output, "must be integers"),
        "fractional_map_value": ("equal_uniform", _shift_first_output, "must be integers"),
        # It once escaped as a raw OverflowError with a traceback.
        "output_support_past_int64": ("unequal", _overflow_output_support, "2**63 - 1"),
        "deterministic_two_cell_row": (
            "equal_uniform",
            _set_first_row(lambda obj: obj["output_support"][:2], [0.5, 0.5]),
            "a deterministic row has one",
        ),
        # Deterministic functions were once written as per-concept bijections.
        "group_maps_file": ("equal_uniform", _as_group_maps, "KeyError('ids')"),
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

    def test_header_only_run_is_data_error(self, tmp_path, capsys):
        # evaluate rejects a header-only erased/samples pair as a data error,
        # before the joint counts see zero rows.
        out = gen(tmp_path, setting="unequal", support=6, samples=50)
        erased = tmp_path / "erased"
        code = run(["erase", "--samples", out / "samples.csv", "--dists",
                    out / "true_dists.json", "--out-dir", erased])
        assert code == EXIT_OK
        empty_erased, empty_samples = tmp_path / "erased.csv", tmp_path / "samples.csv"
        empty_erased.write_text("z,concept\n")
        empty_samples.write_text("x,concept\n")
        capsys.readouterr()
        code = run(["evaluate", "--dists", out / "true_dists.json", "--function",
                    erased / "function.json", "--erased", empty_erased,
                    "--samples", empty_samples, "--out-dir", tmp_path / "eval"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty sample set" in err
        assert not (tmp_path / "eval").exists()

    def test_shared_symbol_mass_adds_up(self, tmp_path):
        # Symbol 1 is in both groups, so P(X=1) = 0.25 + 0.25. Every row maps
        # to uniform Q, so Z is independent of X: I(Z;X) = 0 and
        # J = 0 - H(X|A) = -1 bit.
        dists = write_dists(tmp_path / "dists.json", [[0, 1], [1, 2]])
        function = tmp_path / "function.json"
        function.write_text(json.dumps({
            "variant": "stochastic", "output_support": [3, 4],
            "q": {"support": [3, 4], "probs": [0.5, 0.5]},
            "ids": [0, 1, 2], "bounds": [0, 2, 4, 6], "out": [3, 4] * 3, "probs": [0.5] * 6,
        }))
        samples, erased = tmp_path / "samples.csv", tmp_path / "erased.csv"
        samples.write_text("x,concept\n0,0\n1,0\n1,1\n2,1\n")
        erased.write_text("z,concept\n3,0\n4,0\n3,1\n4,1\n")
        with pytest.warns(UserWarning, match="A4 violated"):
            code = run(["evaluate", "--dists", dists, "--function", function, "--erased",
                        erased, "--samples", samples, "--out-dir", tmp_path / "eval"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "eval" / "report.json").read_text())["report"]
        assert abs(report["i_zx_analytic"]) <= 1e-12
        assert report["j_value"] == pytest.approx(-1.0, abs=1e-12)


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

    @pytest.mark.parametrize("extra,want", [
        ([], "row_symbol,0,1\n0,0.5,0.0\n1,0.0,0.3\n2,0.09999999999999998,0.10000000000000003\n"),
        (["--oracle"],
         "row_symbol,0,1\n0,0.5,0.0\n1,0.0,0.3\n2,0.09999999999999998,0.09999999999999998\n"),
    ], ids=["greedy", "oracle"])
    def test_mec_coupling_csv_bytes(self, tmp_path, extra, want):
        """coupling.csv for the README's p.json and q.json, byte for byte."""
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps({"support": [0, 1, 2], "probs": [0.5, 0.3, 0.2]}))
        q.write_text(json.dumps({"support": [0, 1], "probs": [0.6, 0.4]}))
        assert run(["mec", "--p", p, "--q", q, "--out-dir", tmp_path, *extra]) == EXIT_OK
        assert (tmp_path / "coupling.csv").read_bytes() == want.encode()

    def test_funnel_csv_bytes(self, tmp_path):
        dists = write_dists(tmp_path / "d.json", [[0, 1, 2], [3, 4]])
        assert run(["funnel", "--dists", dists, "--points", 3, "--out-dir", tmp_path]) == EXIT_OK
        assert (tmp_path / "funnel.csv").read_bytes() == (
            b"u,lower,upper\n0.0,0.0,0.0\n1.146240625180289,0.0,0.49999999999999994\n"
            b"2.292481250360578,1.0,0.9999999999999999\n"
        )

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

    def test_every_written_number_parses_as_a_float(self, tmp_path):
        out = gen(tmp_path, setting="unequal", support=5)
        dists = out / "true_dists.json"
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps({"support": [0, 1], "probs": [0.6, 0.4]}))
        q.write_text(json.dumps({"support": [2, 3], "probs": [0.5, 0.5]}))
        commands = [
            ["funnel", "--dists", dists, "--points", 11, "--out-dir", tmp_path / "funnel"],
            ["erase", "--samples", out / "samples.csv", "--dists", dists,
             "--out-dir", tmp_path / "erase"],
            ["evaluate", "--dists", dists, "--function", tmp_path / "erase" / "function.json",
             "--erased", tmp_path / "erase" / "erased.csv", "--samples", out / "samples.csv",
             "--funnel-points", 11, "--out-dir", tmp_path / "eval"],
            ["mec", "--p", p, "--q", q, "--out-dir", tmp_path / "mec"],
        ]
        for argv in commands:
            assert run(argv) == EXIT_OK, argv
        # (file, first numeric column, data rows)
        for path, first, rows in [
            (tmp_path / "funnel" / "funnel.csv", 0, 11),
            (tmp_path / "eval" / "funnel.csv", 0, 11),
            (tmp_path / "eval" / "tradeoff.csv", 2, 2),
            (tmp_path / "mec" / "coupling.csv", 0, 2),
        ]:
            lines = path.read_text().splitlines()[1:]
            assert len(lines) == rows, path
            for line in lines:
                for cell in line.split(",")[first:]:
                    float(cell)  # raises on a cell such as "np.float64(0.5)"
        funnel = (tmp_path / "funnel" / "funnel.csv").read_text()
        assert funnel == (tmp_path / "eval" / "funnel.csv").read_text()

    def test_one_group_funnel_has_no_negative_zero(self, tmp_path, capsys):
        dists = write_dists(tmp_path / "d.json", [[0, 1, 2]])
        code = run(["funnel", "--dists", dists, "--points", 3, "--out-dir", tmp_path / "f"])
        assert code == EXIT_OK
        assert "I(A;X)=0.0000 bits" in capsys.readouterr().out
        lines = (tmp_path / "f" / "funnel.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines] == ["upper", "0.0", "0.0", "0.0"]


@pytest.mark.parametrize("sub", ["generate", "erase", "evaluate", "funnel", "mec", "pic"])
def test_every_subcommand_takes_out_dir(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        run([sub, "--help"])
    assert exc.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


class TestRunConfig:
    """Each subcommand's run_config.json, byte for byte: every flag but
    --out-dir, erase's --bo-* as one "bo" block, generate its SynthConfig."""

    GEN = ["generate", "--setting", "unequal", "--support", 4, "--samples", 200, "--seed", 3]
    DISTS = "gen/true_dists.json"
    SAMPLES = "gen/samples.csv"
    ERASE = {"samples": SAMPLES, "dists": None, "tol": 0.0, "use_bo": False, "seed": 7, "bo": None}
    CASES = {
        "generate": (GEN, {
            "n_groups": 2, "support_per_group": 4, "n_samples_per_group": 200,
            "setting": "unequal", "seed": 3, "dirichlet_alpha": 1.0,
        }),
        "erase_dists": (
            ["erase", "--samples", SAMPLES, "--dists", DISTS],
            {**ERASE, "dists": DISTS, "tol": None, "seed": 0},
        ),
        "erase_alg1": (["erase", "--samples", SAMPLES, "--tol", 0, "--seed", 7], ERASE),
        "erase_alg1_bo": (
            ["erase", "--samples", SAMPLES, "--tol", 0, "--seed", 7, "--use-bo",
             "--bo-budget", 8, "--bo-seed", 2],
            {**ERASE, "use_bo": True, "bo": {"budget": 8, "n_acq_candidates": 1024, "seed": 2}},
        ),
        "evaluate": (
            ["evaluate", "--dists", DISTS, "--function", "erased/function.json",
             "--erased", "erased/erased.csv", "--samples", SAMPLES, "--funnel-points", 11],
            {"dists": DISTS, "function": "erased/function.json", "erased": "erased/erased.csv",
             "samples": SAMPLES, "funnel_points": 11},
        ),
        "funnel": (["funnel", "--dists", DISTS], {"dists": DISTS, "points": 101}),
        "mec_oracle": (
            ["mec", "--p", "p.json", "--q", "q.json", "--oracle"],
            {"p": "p.json", "q": "q.json", "oracle": True, "max_cells": 20},
        ),
        "pic": (["pic", "--dists", DISTS], {"dists": DISTS}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_record(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps({"support": [0, 1], "probs": [0.6, 0.4]}))
        (tmp_path / "q.json").write_text(json.dumps({"support": [2, 3], "probs": [0.5, 0.5]}))
        assert run([*self.GEN, "--out-dir", "gen"]) == EXIT_OK
        erase = ["erase", "--samples", self.SAMPLES, "--dists", self.DISTS, "--out-dir", "erased"]
        assert run(erase) == EXIT_OK
        argv, config = self.CASES[case]
        assert run([*argv, "--out-dir", "run"]) == EXIT_OK
        expected = {"subcommand": argv[0], "config": config}
        assert (tmp_path / "run" / "run_config.json").read_text() == (
            json.dumps(expected, sort_keys=True) + "\n"
        )
