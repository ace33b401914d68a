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
