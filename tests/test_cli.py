import ast
import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hermflow
from hermflow import anharmonic_potential, build_convergence_report, cli, train, trainer
from hermflow.cli import (
    ConfigError,
    ExperimentConfig,
    build_parser,
    load_config,
    main,
    parse_config_file,
    parse_range,
    read_spectra_csv,
    solve_case,
    solve_sweep,
    write_sweep,
)
from hermflow.trainer import TrainingConfig
from conftest import make_feasible_params

REPO = Path(__file__).resolve().parents[1]


def run(args):
    return main([str(a) for a in args])


def load_tracing(monkeypatch):
    """benchmarks/tracing.py, loaded without writing bytecode into the benchmark's directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", REPO / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestConfigParsing:
    def test_flat_key_value_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "potential = harmonic\n"
            "scheme = hermite\n"
            "N = 10\n"
            "Q = 40\n"
            "seed = 7\n"
        )
        values = parse_config_file(cfg)
        assert values == {"potential": "harmonic", "scheme": "hermite", "N": 10, "Q": 40, "seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quadrature = 90\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 3\nN = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = three\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(cfg)

    def test_n_range_parsing(self, tmp_path):
        assert parse_range("3..5", "N_range") == (3, 5)
        for text in ("5..3", "5-7", "0..4", "a..b", "5..x"):
            with pytest.raises(ConfigError, match="1 <= lo <= hi"):
                parse_range(text, "N_range")
        for text in ("5..3", "a..b"):
            assert run(["sweep", "--N-range", text, "--output-dir", tmp_path / "x"]) == 2
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command,config,message",
        [
            ("sweep", "scheme = hermite\n", "sweep needs N_range"),
            ("solve", "N 5\n", "expected 'key = value', got 'N 5'"),
        ],
    )
    def test_config_error_exits_2_before_any_output(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--output-dir", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,size,key", [("sweep", ["--N", 300], "N"), ("solve", ["--N", 5], "N_range")])
    def test_a_size_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, size, key):
        # sweep reads N_range and solve reads N; each refuses the other's key, whatever its value
        out = tmp_path / "out"
        assert run([command, *size, "--N-range", "5..6", "--output-dir", out]) == 2
        assert f"config error: {command} does not take {key} (" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_harmonic_hermite(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["solve", "--potential", "harmonic", "--scheme", "hermite", "--N", 10,
             "--Q", 40, "--output-dir", out]
        )
        assert code == 0
        data = read_spectra_csv(out / "spectrum_hermite_N10.csv")
        np.testing.assert_allclose(data["hermite"][10], np.arange(10) + 0.5, atol=1e-8)
        summary = capsys.readouterr().out
        assert "trace=" in summary and "N=10" in summary

    def test_both_schemes_augmented_wins(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["solve", "--potential", "anharmonic", "--scheme", "both", "--N", 5,
             "--Q", 40, "--hidden", 16, "--iterations", 150, "--output-dir", out]
        )
        assert code == 0
        herm = read_spectra_csv(out / "spectrum_hermite_N5.csv")["hermite"][5]
        aug = read_spectra_csv(out / "spectrum_augmented_N5.csv")["augmented"][5]
        assert aug.sum() <= herm.sum()
        assert (out / "checkpoint_augmented_N5.txt").exists()
        assert (out / "trace_augmented_N5.csv").exists()

    def test_divergent_training_exits_1_without_spectrum(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["solve", "--scheme", "augmented", "--N", 4, "--Q", 30, "--hidden", 8,
             "--iterations", 40, "--learning-rate", 12, "--output-dir", out]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: TrainingAborted: ")
        assert not list(out.glob("spectrum_*"))

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("Nn = 5\n")
        out = tmp_path / "out"
        code = run(["solve", "--config", cfg, "--output-dir", out])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--hidden", 0),
            ("--blocks", 0),
            ("--Q", 250),
            ("--learning-rate", "nan"),
            ("--learning-rate", "inf"),
            ("--seed", -3),
            ("--Q", 3),
        ],
    )
    def test_bad_size_exits_2_before_any_output(self, tmp_path, flag, value):
        out = tmp_path / "out"
        code = run(
            ["solve", "--potential", "harmonic", "--scheme", "both", "--N", 5,
             "--iterations", 1, flag, value, "--output-dir", out]
        )
        assert code == 2
        assert not list(out.glob("spectrum_*"))

    def test_basis_larger_than_rule_exits_2_without_directory(self, tmp_path):
        out = tmp_path / "out"
        code = run(["solve", "--scheme", "both", "--N", 5, "--Q", 3, "--output-dir", out])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "potential,N,Q", [("harmonic", 40, 40), ("anharmonic", 39, 40), ("anharmonic", 199, 200)]
    )
    @pytest.mark.parametrize("scheme", ["hermite", "both"])
    def test_plain_basis_past_its_exact_size_exits_2_without_directory(
        self, tmp_path, capsys, potential, N, Q, scheme
    ):
        out = tmp_path / "out"
        code = run(["solve", "--potential", potential, "--scheme", scheme, "--N", N, "--Q", Q,
                    "--output-dir", out])
        assert code == 2
        assert f"plain basis size N = {N} exceeds {N - 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_augmented_basis_is_not_held_to_the_plain_bound(self):
        config = ExperimentConfig(potential="anharmonic", scheme="augmented", N=40, Q=40)
        assert config.validate() is config

    def test_missing_n_exits_2(self, tmp_path):
        code = run(["solve", "--potential", "harmonic", "--output-dir", tmp_path / "x"])
        assert code == 2

    def test_bad_scheme_exits_2(self, tmp_path):
        code = run(
            ["solve", "--scheme", "magic", "--N", 3, "--output-dir", tmp_path / "x"]
        )
        assert code == 2

    @pytest.mark.parametrize("scheme", ["augmneted", "both"])
    def test_solve_case_takes_one_scheme(self, scheme):
        config = ExperimentConfig(potential="harmonic", Q=20, hidden=4, iterations=3)
        with pytest.raises(ValueError, match=repr(scheme)):
            solve_case(config, scheme, 4, 0)


class TestSolveCaseParity:
    """A case without a warp and with an even potential is solved as its even and odd blocks;
    any other case assembles and diagonalizes the full matrix, as `assemble_hamiltonian` and
    `eigh` do."""

    @pytest.mark.parametrize("potential", ["harmonic", "anharmonic"])
    def test_blocks_agree_with_the_full_matrix(self, potential):
        config = ExperimentConfig(potential=potential, Q=200)
        rule, V = hermflow.gauss_hermite_rule(200), hermflow.potential_from_descriptor(potential)
        for N in range(1, 181):
            case = solve_case(config, "hermite", N, 0)
            H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(N), rule, V).entries
            full = hermflow.eigh(H).eigenvalues
            assert case.eigenvalues.shape == (N,) and np.all(np.diff(case.eigenvalues) >= 0)
            assert np.all(np.abs(case.eigenvalues - full) <= 1e-11 * np.abs(full))
            assert case.trace == pytest.approx(float(np.trace(H)), rel=1e-14)
            assert case.params is None and case.training is None

    def test_each_block_goes_through_the_cli_names(self, monkeypatch):
        # the benchmark's tracer patches these names; N = 1 has no odd block
        calls = count_cli_calls(monkeypatch, ("assemble_hamiltonian", "eigh"))
        for N, blocks in ((1, 1), (2, 2), (9, 2)):
            calls.clear()
            solve_case(ExperimentConfig(potential="anharmonic", Q=40), "hermite", N, 0)
            assert calls == {"assemble_hamiltonian": blocks, "eigh": blocks}

    def test_odd_potential_solves_the_full_matrix(self, monkeypatch):
        odd = hermflow.Potential((0.0, 0.1, 0.5), "0.1*x + 0.5*x^2")
        monkeypatch.setattr(cli, "potential_from_descriptor", lambda name: odd)
        rule = hermflow.gauss_hermite_rule(40)
        for N in (1, 2, 7, 15):
            case = solve_case(ExperimentConfig(potential="harmonic", Q=40), "hermite", N, 0)
            H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(N), rule, odd).entries
            assert case.eigenvalues.tobytes() == hermflow.eigh(H).eigenvalues.tobytes()
            assert case.trace == float(np.trace(H))

    def test_augmented_case_solves_the_full_matrix(self):
        # at 0 iterations the warp is the identity: the blocks follow the warp, not what it does
        V, rule = hermflow.anharmonic_potential(), hermflow.gauss_hermite_rule(40)
        for iterations in (0, 5):
            config = ExperimentConfig(potential="anharmonic", Q=40, hidden=4, iterations=iterations)
            memo = {}
            case = solve_case(config, "augmented", 6, 3, memo)
            assert case.params is not None and memo == {}  # a warped case writes no block
            H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(6), rule, V, case.params)
            assert case.eigenvalues.tobytes() == hermflow.eigh(H.entries).eigenvalues.tobytes()
            assert case.trace == float(np.trace(H.entries))


def one_cpu(monkeypatch):
    """Keep a sweep's Ns in this process, as `taskset -c 0` does: a child never sees a monkeypatch."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)


def two_cpus(monkeypatch):
    """Let a sweep start its child whatever CPUs this host has."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)


def count_cli_calls(monkeypatch, names):
    """A counter of the calls made through `cli`'s names, which the benchmark's tracer binds."""
    calls = collections.Counter()
    for name in names:
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _fn=fn: calls.update([_name]) or _fn(*a))
    return calls


class TestSweepMemo:
    """A sweep solves each distinct plain parity block once: N + 1 adds index N, which
    grows one block, and the other is N's.  The memo lives for one sweep."""

    @pytest.mark.parametrize("potential", ["harmonic", "anharmonic"])
    @pytest.mark.parametrize("lo,hi", [(3, 12), (4, 13)])
    def test_spectra_match_cases_solved_alone(self, tmp_path, potential, lo, hi):
        assert run(["sweep", "--potential", potential, "--scheme", "hermite", "--Q", 40,
                    "--N-range", f"{lo}..{hi}", "--output-dir", tmp_path / "sweep"]) == 0
        config, memo, rows = ExperimentConfig(potential=potential, Q=40), {}, []
        for N in range(lo, hi + 1):
            alone, shared = solve_case(config, "hermite", N, N), solve_case(config, "hermite", N, N, memo)
            assert shared.eigenvalues.tobytes() == alone.eigenvalues.tobytes() and shared.trace == alone.trace
            rows += [("hermite", N, n, E) for n, E in enumerate(alone.eigenvalues.tolist())]
        hermflow.analysis.write_spectra_csv(tmp_path / "alone.csv", rows)
        assert (tmp_path / "sweep" / "spectra.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_each_distinct_block_is_solved_once_per_sweep(self, tmp_path, monkeypatch):
        # N = lo has two blocks and each later N one new block: (hi - lo) + 2; a second
        # sweep in the same process solves them all again
        calls = count_cli_calls(monkeypatch, ("assemble_hamiltonian", "eigh"))
        for lo, hi in ((3, 12), (4, 13), (3, 12)):
            calls.clear()
            assert run(["sweep", "--scheme", "hermite", "--Q", 40, "--N-range", f"{lo}..{hi}",
                        "--output-dir", tmp_path / f"{lo}"]) == 0
            assert calls == {"assemble_hamiltonian": (hi - lo) + 2, "eigh": (hi - lo) + 2}

    def test_augmented_cases_train_and_assemble_once(self, tmp_path, monkeypatch):
        one_cpu(monkeypatch)
        warped = collections.Counter()
        assemble, fit = cli.assemble_hamiltonian, cli.train
        monkeypatch.setattr(cli, "assemble_hamiltonian",
                            lambda spec, rule, V, params: warped.update([params is not None]) or assemble(spec, rule, V, params))
        monkeypatch.setattr(cli, "train", lambda config, V: warped.update(["train"]) or fit(config, V))
        assert run(["sweep", "--scheme", "both", "--Q", 30, "--hidden", 4, "--iterations", 3,
                    "--N-range", "4..7", "--output-dir", tmp_path]) == 0
        assert warped == {"train": 4, True: 4, False: (7 - 4) + 2}


class TestSweep:
    def test_harmonic_ground_state_never_degrades(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            ["sweep", "--potential", "harmonic", "--scheme", "hermite",
             "--N-range", "1..9", "--Q", 30, "--output-dir", out]
        )
        assert code == 0
        data = read_spectra_csv(out / "spectra.csv")["hermite"]
        assert sorted(data) == list(range(1, 10))
        e0 = [data[N][0] for N in range(1, 10)]
        assert np.all(np.diff(e0) <= 1e-12)  # nested bases cannot raise E0

    def test_partial_failure_recorded_in_manifest(self, tmp_path):
        import json

        out = tmp_path / "sweep"
        # at Q = 4 the plain harmonic basis is exact up to N = 3: N = 4 is past that bound and
        # N = 5 past Q, so those sweep entries fail, and the earlier ones survive
        code = run(
            ["sweep", "--potential", "harmonic", "--scheme", "hermite",
             "--N-range", "2..5", "--Q", 4, "--output-dir", out]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["completed"] == [2, 3]
        assert sorted(manifest["failed"]) == ["4", "5"]
        assert "N = 4 exceeds 3" in manifest["failed"]["4"] and "N = 5 exceeds 3" in manifest["failed"]["5"]
        data = read_spectra_csv(out / "spectra.csv")["hermite"]
        assert sorted(data) == [2, 3]

    def test_plain_ladder_raises_no_warning(self, tmp_path):
        # every plain size of the Q = 200 ladder is exact, so none warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", "--scheme", "hermite", "--Q", 200, "--N-range", "5..180",
                        "--output-dir", tmp_path]) == 0

    def test_failed_n_writes_no_rows(self, tmp_path, monkeypatch):
        # N = 4's hermite case solves, then its training fails: neither scheme keeps its rows
        import json

        def train_failing_at_4(config, V):
            if config.N == 4:
                raise RuntimeError("training failed")
            return train(config, V)

        one_cpu(monkeypatch)
        monkeypatch.setattr(cli, "train", train_failing_at_4)
        assert run(["sweep", "--N-range", "3..5", "--Q", 30, "--hidden", 4, "--iterations", 3,
                    "--output-dir", tmp_path]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["completed"] == [3, 5] and list(manifest["failed"]) == ["4"]
        data = read_spectra_csv(tmp_path / "spectra.csv")
        assert sorted(data["hermite"]) == sorted(data["augmented"]) == [3, 5]


class TestTwoProcesses:
    """`solve_sweep` on two CPUs: a child solves part of the Ns, and the sweep it gives is
    the one-process sweep, byte for byte."""

    SMALL = dict(potential="anharmonic", Q=30, hidden=4, iterations=20)

    def sweep(self, monkeypatch, out, config, Ns, cpus):
        """`cmd_sweep`'s solve and write on `cpus` CPUs: (exit status, files by name)."""
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        out.mkdir()
        code = write_sweep(out, config, Ns, solve_sweep(config, Ns))
        return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def same_sweep(self, alone, split):
        """The same files, byte for byte, but the loss traces' step times."""
        assert list(alone) == list(split)
        for name in alone:
            if name.startswith("trace_"):
                no_wall = [[line.rpartition(b",")[0] for line in files[name].splitlines()] for files in (alone, split)]
                assert no_wall[0] == no_wall[1], name
            else:
                assert alone[name] == split[name], name

    def test_outputs_are_those_of_one_process(self, tmp_path, monkeypatch):
        config = ExperimentConfig(**self.SMALL, seed=11)
        (one, alone), (two, split) = (
            self.sweep(monkeypatch, tmp_path / f"w{cpus}", config, range(3, 7), cpus) for cpus in (1, 2))
        assert one == two == 0
        self.same_sweep(alone, split)
        assert [name for name in split if name.startswith("checkpoint")] == [
            f"checkpoint_augmented_N{N}.txt" for N in range(3, 7)]
        assert len(split["trace_augmented_N6.csv"].splitlines()) == 2 + 20

    def test_a_case_failing_in_the_child_fails_as_here(self, tmp_path, monkeypatch):
        # N = 17 > Q = 16 goes to the child (the parent keeps the first of two equal shares)
        config = ExperimentConfig(**{**self.SMALL, "Q": 16}, scheme="augmented")
        (one, alone), (two, split) = (
            self.sweep(monkeypatch, tmp_path / f"w{cpus}", config, (3, 17), cpus) for cpus in (1, 2))
        assert one == two == 1
        self.same_sweep(alone, split)
        manifest = json.loads(split["manifest.json"])
        assert manifest == {"completed": [3], "failed": {
            "17": "ValueError: basis size N = 17 exceeds the quadrature order Q = 16"}}
        assert "checkpoint_augmented_N17.txt" not in split
        assert sorted(read_spectra_csv(tmp_path / "w2" / "spectra.csv")["augmented"]) == [3]

    def test_a_warning_in_the_child_is_issued_here(self, monkeypatch):
        # at Q = 16, N = 3 assembles without the 2N + 10 warning and N = 4, the child's, with it
        two_cpus(monkeypatch)
        config = ExperimentConfig(**{**self.SMALL, "Q": 16}, scheme="augmented")
        with pytest.warns(UserWarning, match=r"quadrature order 16 < 2N \+ 10 = 18") as caught:
            results = solve_sweep(config, (3, 4))
        assert len(caught) == 1 and all(isinstance(case, cli.CaseResult) for cases in results for case in cases)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_n_stops_at_its_first_failure(self, tmp_path, monkeypatch, cpus):
        # at Q = 20 the plain basis is exact up to N = 18: N = 19 and 20 fail at their plain case,
        # so no warp of theirs trains or warns (2N + 10 = 48, 50); with two CPUs the child solves N = 19
        trained, fit = [], cli.train
        monkeypatch.setattr(cli, "train", lambda config, V: trained.append(config.N) or fit(config, V))
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sweep", "--scheme", "both", "--Q", 20, "--N-range", "18..20", "--hidden", 4,
                        "--iterations", 50, "--output-dir", tmp_path]) == 1
        assert [str(w.message).partition(";")[0] for w in caught] == ["quadrature order 20 < 2N + 10 = 46"]
        assert trained == [18]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["completed"] == [18] and list(manifest["failed"]) == ["19", "20"]
        assert "N = 19 exceeds 18" in manifest["failed"]["19"] and "N = 20 exceeds 18" in manifest["failed"]["20"]

    def test_a_child_that_dies_fails_its_cases(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_CHILD_SCRIPT", "import os; os._exit(3)")
        code, files = self.sweep(monkeypatch, tmp_path / "out", ExperimentConfig(**self.SMALL), range(3, 6), 2)
        assert code == 1 and {"spectra.csv", "manifest.json", "checkpoint_augmented_N3.txt"} <= set(files)
        manifest = json.loads(files["manifest.json"])
        assert manifest["completed"] == [3, 5] and list(manifest["failed"]) == ["4"]
        assert manifest["failed"]["4"] == "ChildProcessError: the sweep's child process exited with status 3"
        assert "sweep N=4 FAILED: the sweep's child process exited with status 3" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):  # no child left, not even one to reap
            os.waitpid(-1, os.WNOHANG)

    def test_a_sweep_run_as_a_module_starts_a_child_that_reads_its_cases(self, tmp_path):
        # `python -m hermflow.cli` names this module `__main__`, whose classes a child cannot load
        script = ("import os, runpy, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                  "sys.argv[1:] = ['sweep', '--scheme', 'augmented', '--N-range', '3..4', '--Q', '20', "
                  "'--hidden', '4', '--iterations', '3', '--output-dir', sys.argv[1]]; "
                  "runpy.run_module('hermflow.cli', run_name='__main__')")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", script, tmp_path], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "sweep N=3 done\nsweep N=4 done\n"
        assert json.loads((tmp_path / "manifest.json").read_text()) == {"completed": [3, 4], "failed": {}}

    def test_an_interrupted_parent_stops_its_child(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        two_cpus(monkeypatch)
        monkeypatch.setattr(cli, "_solve_n", interrupted)
        with pytest.raises(KeyboardInterrupt):
            solve_sweep(ExperimentConfig(**self.SMALL), (3, 4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus,warped,child", [(1, 5, False), (2, 1, False), (2, 0, False), (2, 2, True)])
    def test_a_child_starts_only_for_two_warped_cases_on_two_cpus(self, monkeypatch, cpus, warped, child):
        # `warped` Ns of both schemes, or with none two plain Ns
        started, start = [], cli._start_child
        monkeypatch.setattr(cli, "_start_child", lambda config, Ns: started.append(Ns) or start(config, Ns))
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        config = ExperimentConfig(**{**self.SMALL, "iterations": 1}, scheme="both" if warped else "hermite")
        results = solve_sweep(config, range(3, 3 + (warped or 2)))
        assert bool(started) is child
        assert all(isinstance(case, cli.CaseResult) for cases in results for case in cases)

    @pytest.mark.parametrize("config,Ns,child", [
        (ExperimentConfig(iterations=500), range(5, 10), [6, 8]),  # sweep_small: the parent keeps three
        (ExperimentConfig(), range(5, 30), [6, 8, *range(11, 30, 2)]),  # the study: 21,500 | 21,000 steps
        (SimpleNamespace(steps_at={1: 3, 2: 2, 3: 2}.get), (1, 2, 3), [1]),  # dealt 3 | 2 + 2
    ])
    def test_the_child_takes_the_smaller_share_of_steps(self, config, Ns, child):
        assert cli._child_share(config, list(Ns)) == child


class TestAnalyze:
    @pytest.fixture()
    def sweep_dir(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            ["sweep", "--potential", "anharmonic", "--scheme", "hermite",
             "--N-range", "8..16", "--Q", 50, "--output-dir", out]
        )
        assert code == 0
        return out

    def test_writes_bands_rates_fits(self, sweep_dir, tmp_path):
        out = tmp_path / "an"
        code = run(["analyze", sweep_dir / "spectra.csv", "--n-ref", 16, "--output-dir", out])
        assert code == 0
        bands = (out / "bands.csv").read_text().splitlines()
        assert bands[1] == "scheme,N,band,abs_error,rel_error"
        assert len(bands) > 2
        rates = (out / "rates.csv").read_text().splitlines()
        assert any(ln.startswith("hermite,") for ln in rates[2:])
        fits = (out / "fits.csv").read_text().splitlines()
        assert len(fits) == 3  # header comment, column names, one scheme row
        _, slope, _ = fits[2].split(",")
        assert float(slope) < 0  # ratios shrink toward the reference

    def test_writes_the_report_numbers_bit_for_bit(self, sweep_dir, tmp_path):
        # the acceptance criteria read build_convergence_report, so analyze must write
        # exactly its numbers: repr round-trips floats, and a NaN rate reads back as NaN
        out = tmp_path / "an"
        assert run(["analyze", sweep_dir / "spectra.csv", "--n-ref", 16, "--output-dir", out]) == 0
        spectra = read_spectra_csv(sweep_dir / "spectra.csv")["hermite"]
        report = build_convergence_report("hermite", spectra, 16)

        def bits(rows):
            return [np.array(row, dtype=float).tobytes() for row in rows]

        def written(name, columns):  # the rows after the two header lines, less the scheme
            lines = (out / name).read_text().splitlines()[2:]
            return bits([float(v) for v in line.split(",")[1:columns]] for line in lines)

        bands = [(N, b, e) for N in sorted(report.band_errors) for b, e in enumerate(report.band_errors[N])]
        assert written("bands.csv", 4) == bits(bands)  # N, band, abs_error
        assert written("rates.csv", 3) == bits((N, report.rates[N]) for N in sorted(report.rates))
        assert written("fits.csv", 3) == bits([report.fit])

    def test_harmonic_band_errors_vanish(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(
            ["sweep", "--potential", "harmonic", "--scheme", "hermite",
             "--N-range", "5..10", "--Q", 40, "--output-dir", out]
        ) == 0
        an = tmp_path / "an"
        assert run(["analyze", out / "spectra.csv", "--n-ref", 10, "--output-dir", an]) == 0
        for line in (an / "bands.csv").read_text().splitlines()[2:]:
            _, _, _, abs_err, _ = line.split(",")
            assert float(abs_err) < 1e-8

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["analyze", tmp_path / "nope.csv", "--n-ref", 5]) == 2

    @pytest.mark.parametrize("row", ["hermite,1", "hermite,1,0,abc"])
    def test_malformed_row_exits_2_before_any_output(self, tmp_path, capsys, row):
        spectra = tmp_path / "spectra.csv"
        spectra.write_text(f"# hermflow spectra csv v1\nscheme,N,n,E\n{row}\n")
        out = tmp_path / "an"
        assert run(["analyze", spectra, "--n-ref", 1, "--output-dir", out]) == 2
        assert f"{spectra}:3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "files,message",
        [
            (["hermite,1,0,0.5\nhermite,1,0,0.6"], "0.csv:4: conflicting value for hermite N=1 n=0"),
            (["hermite,2,0,0.5"], "0.csv: incomplete spectrum for hermite N=2"),
            (["hermite,1,0,0.5", "hermite,1,0,0.6"], "1.csv:3: conflicting value for hermite N=1 n=0"),
            # a case held whole by one input does not complete another input's part of it
            (["hermite,2,0,0.5\nhermite,2,1,1.5", "hermite,2,0,0.5"], "1.csv: incomplete spectrum for hermite N=2"),
            # inputs that agree on every level of a case are accepted
            (["hermite,2,0,0.5\nhermite,2,1,1.5", "hermite,2,1,1.5\nhermite,2,0,0.5"], None),
            # an index below 0 or at N or above is no level of the case
            (["hermite,2,-1,0.5\nhermite,2,0,0.5\nhermite,2,1,1.5"], "0.csv: incomplete spectrum for hermite N=2"),
            (["hermite,2,0,0.5\nhermite,2,1,1.5\nhermite,2,2,2.5"], "0.csv: incomplete spectrum for hermite N=2"),
            # three rows from 0 to N-1 = 2, but n = 1 missing: a repeat does not count twice
            (["hermite,3,0,0.5\nhermite,3,0,0.5\nhermite,3,2,2.5"], "0.csv: incomplete spectrum for hermite N=3"),
            # a level given twice with one value in one file is accepted; a NaN differs from itself
            (["hermite,2,0,0.5\nhermite,2,1,1.5\nhermite,2,0,0.5"], None),
            (["hermite,1,0,nan\nhermite,1,0,nan"], "0.csv:4: conflicting value for hermite N=1 n=0"),
            # completeness is decided from the file's own rows, whatever N a row names
            (["hermite,1000000000000,0,0.5"], "0.csv: incomplete spectrum for hermite N=1000000000000"),
        ],
    )
    def test_inconsistent_spectra_exit_2_before_any_output(self, tmp_path, capsys, files, message):
        paths = [tmp_path / f"{i}.csv" for i in range(len(files))]
        for path, rows in zip(paths, files):
            path.write_text(f"# hermflow spectra csv v1\nscheme,N,n,E\n{rows}\n")
        out = tmp_path / "an"
        assert run(["analyze", *paths, "--n-ref", 2, "--output-dir", out]) == (0 if message is None else 2)
        assert message is None or message in capsys.readouterr().err
        assert out.exists() == (message is None)

    def test_inputs_without_rows_exit_2_before_any_output(self, tmp_path, capsys):
        paths = [tmp_path / f"{i}.csv" for i in range(2)]
        for path in paths:
            path.write_text("# hermflow spectra csv v1\nscheme,N,n,E\n")
        out = tmp_path / "an"
        assert run(["analyze", *paths, "--n-ref", 1, "--output-dir", out]) == 2
        assert "config error: no spectra rows found in the inputs" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_below_analyzed_sizes_exits_2(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "an3"
        code = run(
            ["analyze", sweep_dir / "spectra.csv", "--n-ref", 12,
             "--output-dir", out]
        )
        assert code == 2
        assert "N_ref=12 must cover every analyzed basis size; 'hermite' has N=16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--window", "five..ten"),
            ("--window", "10..5"),
            ("--band-size", 0),
            ("--band-size", -2),
        ],
    )
    def test_bad_window_exits_2(self, sweep_dir, tmp_path, capsys, flag, value):
        # the band size and the window are analysis constants: analyze takes no such flag
        out = tmp_path / "an4"
        with pytest.raises(SystemExit) as exc:
            run(["analyze", sweep_dir / "spectra.csv", "--n-ref", 16, flag, value, "--output-dir", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_scheme_without_reference_exits_2(self, sweep_dir, tmp_path, capsys):
        from hermflow.analysis import write_spectra_csv

        extra = tmp_path / "extra.csv"
        write_spectra_csv(extra, [("augmented", 5, n, float(n) + 0.5) for n in range(5)])
        out = tmp_path / "an2"
        code = run(
            ["analyze", sweep_dir / "spectra.csv", extra, "--n-ref", 16,
             "--output-dir", out]
        )
        assert code == 2
        assert "scheme 'augmented' has no N_ref=16 spectrum" in capsys.readouterr().err
        assert not out.exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMFLOW_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "rooted"
        code = run(
            ["solve", "--potential", "harmonic", "--scheme", "hermite", "--N", 4,
             "--Q", 20, "--output-dir", "rooted"]
        )
        assert code == 0
        assert (out / "spectrum_hermite_N4.csv").exists()


def traced_peak_mib(fn, *args) -> tuple:
    """fn(*args), and the most Python memory (MiB) it held at once beyond what was held before the call."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


class TestSpectraMemory:
    """The plain ladder's 176 cases (N = 5..180, 16,280 rows) stream through the spectra writer and
    reader: the writer holds no Python object per level, and the reader none but each level's value
    and an index per row.  Each bound lies below what one more object per level costs: a
    tuple per row held by `write_sweep` takes 1.5-1.7 MiB, a set entry per level in
    `read_spectra_csv` 2.1 MiB."""

    Ns = range(5, 181)

    @pytest.fixture
    def ladder(self, tmp_path):
        rng = np.random.default_rng(36)
        results = [[cli.CaseResult(np.sort(rng.uniform(0.0, 1e4, N)), 0.0, None, None)] for N in self.Ns]
        return tmp_path, ExperimentConfig(scheme="hermite"), results

    def test_write_sweep_holds_no_row_per_level(self, ladder):
        out, config, results = ladder
        code, peak = traced_peak_mib(write_sweep, out, config, self.Ns, results)
        assert code == 0 and peak < 0.5
        assert (out / "spectra.csv").read_text().count("\n") == 2 + sum(self.Ns)

    def test_read_spectra_csv_holds_no_set_entry_per_level(self, ladder):
        out, config, results = ladder
        write_sweep(out, config, self.Ns, results)
        data, peak = traced_peak_mib(read_spectra_csv, out / "spectra.csv")
        assert peak < 1.6
        assert all(np.array_equal(data["hermite"][N], case.eigenvalues) for N, (case,) in zip(self.Ns, results))


class TestSettingsInStep:
    """Config keys, flags and defaults all come from the same declarations."""

    VALUES = {
        "potential": "harmonic",
        "scheme": "augmented",
        "N": 4,
        "N_range": "5..9",
        "Q": 40,
        "hidden": 8,
        "blocks": 2,
        "learning_rate": 0.001,
        "iterations": 7,
        "seed": 3,
        "lipschitz_margin": 0.9,
        "output_dir": "out",
    }

    def test_keys_flags_and_defaults(self, tmp_path):
        keys = {f.name for f in fields(ExperimentConfig)}
        assert set(self.VALUES) == keys
        cfg = tmp_path / "all.cfg"  # written as benchmarks/workloads.py writes its configs
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in self.VALUES.items()))
        assert parse_config_file(cfg) == self.VALUES
        flags = [
            arg for key, value in self.VALUES.items()
            for arg in ("--" + key.replace("_", "-"), str(value))
        ]
        parser = build_parser()
        from_file = load_config(parser.parse_args(["solve", "--config", str(cfg)]))
        from_flags = load_config(parser.parse_args(["solve", *flags]))
        assert from_file == from_flags == ExperimentConfig(**self.VALUES)
        for N, seed in [(1, 0), (7, 12)]:
            assert ExperimentConfig().training_config(N, seed) == TrainingConfig(N=N, seed=seed)


def test_benchmark_tracer_bindings_resolve(monkeypatch):
    """Every name the benchmark's tracer patches is still bound where it looks for it."""
    tracing = load_tracing(monkeypatch)
    bindings = tracing.TRACED_BINDINGS + tracing.TIMED_BINDINGS
    missing = []
    for path, name, _ in bindings:
        owner = hermflow
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, name, None)):
            missing.append(f"{path}.{name}" if path else name)
    assert bindings and not missing


@pytest.mark.parametrize("table", ["TRACED_BINDINGS", "TIMED_BINDINGS"])
def test_benchmark_tracer_installs_and_uninstalls(monkeypatch, table):
    """The tracer wraps every name it binds on the package, `autodiff.Var.backward` among
    them; an inactive wrapper passes a call through, and `uninstall` puts back each original."""
    tracing = load_tracing(monkeypatch)
    bindings = getattr(tracing, table)
    owners = []
    for path, name, _ in bindings:
        owner = hermflow
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part)
        owners.append((owner, name, getattr(owner, name)))
    tracer = tracing.Tracer()
    tracer.install(hermflow, bindings)
    try:
        for owner, name, original in owners:
            wrapped = getattr(owner, name)
            assert wrapped is not original and wrapped.__wrapped__ is original, name
        if table == "TRACED_BINDINGS":
            assert (hermflow.autodiff.Var, "backward") in [(owner, name) for owner, name, _ in owners]
            x = hermflow.autodiff.Var(2.0)
            x.backward()
            assert float(x.grad) == 1.0 and not tracer.spans
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original for owner, name, original in owners)


def test_benchmark_tracer_sees_every_jet_at_points(monkeypatch, rng):
    """`flow_jet` is the one entry to a warp's jets at points and the tracer binds it: the warped
    basis, `flow_forward` and `flow_jet` each leave a `flow.jet` span, and every sweep that `flow`
    runs by its own name `_map_jets` runs inside one."""
    tracing, flow = load_tracing(monkeypatch), hermflow.flow
    tracer, sweeps, map_jets = tracing.Tracer(), [], flow._map_jets

    def watched(*args, **kwargs):
        sweeps.append(list(tracer._stack))  # the spans open around this sweep
        return map_jets(*args, **kwargs)

    monkeypatch.setattr(flow, "_map_jets", watched)
    params, xs = make_feasible_params(8, 9.0, 0.1, rng, n_blocks=2), np.linspace(-8.5, 8.5, 201)
    calls = {
        "evaluate_augmented_basis": lambda: flow.evaluate_augmented_basis(params, 4, xs),
        "flow_forward": lambda: flow.flow_forward(params, xs),
        "flow_jet": lambda: flow.flow_jet(params, xs),
    }
    tracer.install(hermflow, tracing.TRACED_BINDINGS)
    try:
        tracer.active = True
        for name, call in calls.items():
            first = len(tracer.spans)
            call()
            assert "flow.jet" in {span[0] for span in tracer.spans[first:]}, name
    finally:
        tracer.active = False
        tracer.uninstall()
    assert len(sweeps) == len(calls)
    assert all(stack and tracer.spans[stack[-1]][0] == "flow.jet" for stack in sweeps)


def test_only_the_package_imports_autodiff():
    """No solver module uses the tape; the package imports it for the tracer's binding alone."""
    importers = []
    for path in sorted((REPO / "src" / "hermflow").glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("autodiff" in n.split(".") for n in names):
                importers.append(path.name)
    assert not importers


def test_benchmark_cli_bindings_are_called(tmp_path, monkeypatch):
    """Every `cli` name the benchmark's tracer patches is called by a tiny solve, sweep
    and analyze: the tracer sees only the calls made through those names."""
    tracing = load_tracing(monkeypatch)
    bindings = tracing.TRACED_BINDINGS + tracing.TIMED_BINDINGS
    names, fired = {name for owner, name, _ in bindings if owner == "cli"}, set()
    for name in names:
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _fn=fn, **k: fired.add(_name) or _fn(*a, **k))
    small = ["--Q", "20", "--hidden", "4", "--iterations", "3", "--output-dir", str(tmp_path)]
    assert cli.main(["solve", "--scheme", "augmented", "--N", "3", *small]) == 0
    assert cli.main(["sweep", "--N-range", "3..4", *small]) == 0
    assert cli.main(["analyze", str(tmp_path / "spectra.csv"), "--n-ref", "4", *small[-2:]]) == 0
    assert names and fired == names


def test_benchmark_trainer_bindings_fire_once_per_step(monkeypatch):
    """`train` calls `gradient` and `adam_step` through the `trainer` names that the
    benchmark's tracer patches, once per Adam step: the benchmark samples its pace
    as `adam_step` returns, so a step that bypassed them would change that pacing."""
    tracing = load_tracing(monkeypatch)
    bindings = tracing.TRACED_BINDINGS + tracing.TIMED_BINDINGS
    names, calls = {name for owner, name, _ in bindings if owner == "trainer"}, collections.Counter()
    for name in names:
        fn = getattr(trainer, name)
        monkeypatch.setattr(trainer, name, lambda *a, _name=name, _fn=fn, **k: calls.update([_name]) or _fn(*a, **k))
    trainer.train(TrainingConfig(N=3, Q=20, hidden=4, iterations=3), anharmonic_potential())
    assert {"gradient", "adam_step"} <= names
    assert calls["gradient"] == calls["adam_step"] == 3


def test_imports_kept_for_the_tracer_are_still_traced(monkeypatch):
    """Each hermflow import marked as bound by benchmarks/tracing.py is still bound there.

    Such an import is used by no code of its module; once the tracer stops
    patching it, it is dead and must go with the binding.
    """
    tracing = load_tracing(monkeypatch)
    traced = [
        ".".join(filter(None, (owner, name)))
        for owner, name, _ in tracing.TRACED_BINDINGS + tracing.TIMED_BINDINGS
    ]
    marked, dead = 0, []
    for path in sorted((REPO / "src" / "hermflow").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = "" if path.stem == "__init__" else path.stem
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or not any(
                "benchmarks/tracing.py" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            for alias in node.names:
                marked += 1
                bound = ".".join(filter(None, (module, alias.asname or alias.name)))
                if not any(t == bound or t.startswith(bound + ".") for t in traced):
                    dead.append(f"{path.name}: {alias.asname or alias.name}")
    assert marked and not dead


def test_names_used_by_demos_and_benchmarks_resolve():
    """Every name the demos and the benchmark take from hermflow is still there.

    Checked: each `from hermflow... import name`, and each attribute chain that
    starts at `hermflow`, `flow` or `cli` (the benchmark's `from hermflow import
    cli, flow`).
    """
    roots = {"hermflow": hermflow, "flow": hermflow.flow, "cli": importlib.import_module("hermflow.cli")}
    used, missing = 0, []
    for path in sorted([*REPO.glob("demos/*.py"), *REPO.glob("benchmarks/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hermflow":
                owner = importlib.import_module(node.module)
                chains = [(owner, [alias.name]) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                attrs = []
                while isinstance(node, ast.Attribute):
                    attrs.insert(0, node.attr)
                    node = node.value
                if not (isinstance(node, ast.Name) and node.id in roots):
                    continue
                chains = [(roots[node.id], attrs)]
            else:
                continue
            for owner, attrs in chains:
                used += 1
                name = f"{path.parent.name}/{path.name}: {owner.__name__}.{'.'.join(attrs)}"
                for attr in attrs:
                    if not hasattr(owner, attr):
                        missing.append(name)
                        break
                    owner = getattr(owner, attr)
    assert used and not missing
