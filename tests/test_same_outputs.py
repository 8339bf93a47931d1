"""The comparison of `tools/same_outputs.py` on synthetic output directories; no sweep is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def spectra(rows) -> str:
    return "# hermflow spectra csv v1\nscheme,N,n,E\n" + "".join(f"{s},{N},{n},{E!r}\n" for s, N, n, E in rows)


def trace(walls) -> str:
    lines = "".join(f"{i},{1.0 / (i + 1)!r},0.5,{w!r}\n" for i, w in enumerate(walls))
    return "# hermflow trace csv v1\niteration,loss,grad_norm,wall_ms\n" + lines


def write(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


ROWS = [("augmented", 5, 0, 0.62), ("augmented", 5, 1, 2.0), ("hermite", 5, 0, 0.63), ("hermite", 5, 1, 2.1),
        ("hermite", 6, 0, 0.625)]


def test_verdicts_per_file(tmp_path):
    moved = [r if r[0] == "augmented" else r[:3] + (r[3] * (1 + 1e-12),) for r in ROWS]
    moved[-1] = ROWS[-1]  # hermite N=6 keeps its bits
    parent = write(tmp_path / "p", {
        "sweep/spectra.csv": spectra(ROWS), "sweep/manifest.json": '{"completed": [5, 6]}\n',
        "sweep/trace_augmented_N5.csv": trace([0.1, 0.2]), "sweep/checkpoint_augmented_N5.txt": "theta 1\n",
        "sweep/analysis/rates.csv": "# hermflow rates csv v1\nscheme,N,e_N\nhermite,6,0.25\n",
        "ladder/only_here.csv": "x\n",
    })
    change = write(tmp_path / "c", {
        "sweep/spectra.csv": spectra(moved), "sweep/manifest.json": '{"completed": [5, 6]}\n',
        "sweep/trace_augmented_N5.csv": trace([0.3, 0.1]), "sweep/checkpoint_augmented_N5.txt": "theta 2\n",
        "sweep/analysis/rates.csv": "# hermflow rates csv v1\nscheme,N,e_N\nhermite,6,0.2500000001\n",
    })
    report = same_outputs.compare(parent, change)
    assert report["sweep/manifest.json"] == {"verdict": "byte-identical"}
    assert report["sweep/trace_augmented_N5.csv"] == {"verdict": "identical except wall_ms"}
    assert report["sweep/checkpoint_augmented_N5.txt"] == {"verdict": "differs"}
    assert report["ladder/only_here.csv"] == {"verdict": "only in parent"}
    rates = report["sweep/analysis/rates.csv"]
    assert rates["verdict"] == "differs" and rates["max_abs"] == pytest.approx(1e-10, rel=1e-5)
    spec = report["sweep/spectra.csv"]
    assert spec["verdict"] == "differs" and spec["moved_cases"] == "1/3"
    assert list(spec["per_case"]) == ["hermite N=5"]
    assert spec["per_case"]["hermite N=5"]["max_rel"] == pytest.approx(1e-12, rel=1e-3)
    assert spec["per_case"]["hermite N=5"]["max_abs"] == pytest.approx(2.1e-12, rel=1e-3)
    assert spec["per_scheme"]["augmented"] == {"max_abs": 0.0, "max_rel": 0.0}


def test_solve_outputs_are_compared_as_the_sweeps(tmp_path):
    # `solve --scheme both` writes a spectrum CSV per scheme, a checkpoint and a trace
    assert ("solve", "--scheme", "both", "--N", "12", "--output-dir", "{out}/solve") in same_outputs.RUNS
    hermite = [r for r in ROWS if r[:2] == ("hermite", 5)]
    moved = [r[:3] + (r[3] * (1 + 1e-12),) for r in hermite]
    files = {"solve/spectrum_augmented_N5.csv": spectra(ROWS[:2]), "solve/checkpoint_augmented_N5.txt": "theta 1\n"}
    parent = write(tmp_path / "p", {**files, "solve/spectrum_hermite_N5.csv": spectra(hermite),
                                    "solve/trace_augmented_N5.csv": trace([0.1, 0.2])})
    change = write(tmp_path / "c", {**files, "solve/spectrum_hermite_N5.csv": spectra(moved),
                                    "solve/trace_augmented_N5.csv": trace([0.3, 0.1])})
    report = same_outputs.compare(parent, change)
    assert report["solve/spectrum_augmented_N5.csv"] == report["solve/checkpoint_augmented_N5.txt"] == {
        "verdict": "byte-identical"}
    assert report["solve/trace_augmented_N5.csv"] == {"verdict": "identical except wall_ms"}
    spec = report["solve/spectrum_hermite_N5.csv"]
    assert spec["verdict"] == "differs" and spec["moved_cases"] == "1/1"


def test_a_trace_that_moved_outside_wall_ms_differs(tmp_path):
    parent = write(tmp_path / "p", {"trace_augmented_N5.csv": trace([0.1, 0.2])})
    text = trace([0.1, 0.2]).replace("0.5,", "0.25,", 1)
    change = write(tmp_path / "c", {"trace_augmented_N5.csv": text})
    assert same_outputs.compare(parent, change)["trace_augmented_N5.csv"] == {"verdict": "differs"}


def test_spectra_with_different_rows_differ(tmp_path):
    parent = write(tmp_path / "p", {"spectra.csv": spectra(ROWS)})
    change = write(tmp_path / "c", {"spectra.csv": spectra(ROWS[:-1])})
    entry = same_outputs.compare(parent, change)["spectra.csv"]
    assert entry["verdict"] == "differs" and "different" in entry["levels"]


def fake_runs(sides: dict[str, dict], seconds: dict | None = None):
    """A stand-in for `run_sides`: writes each side's files and returns its wall time per step."""
    def run_sides(checkouts, work):
        for side, files in sides.items():
            write(work / side, files)
        return seconds or {side: {same_outputs.step_name(step): 1.0 for step in same_outputs.RUNS} for side in sides}
    return run_sides


def checkout(root: Path, main: str = "return 0") -> Path:
    """A checkout whose `hermflow.cli.main` has the body `main`."""
    return write(root, {"src/hermflow/__init__.py": "", "src/hermflow/cli.py": f"def main():\n    {main}\n"})


@pytest.mark.parametrize("moved,status", [({}, 0), ({"sweep/manifest.json": "{}\n"}, 1), ({"extra.txt": "x\n"}, 1)])
def test_exit_status_is_the_verdict(tmp_path, monkeypatch, capsys, moved, status):
    # 0 when every file is the same (a trace but for wall_ms), 1 when one moved or is on one side only
    same = {"sweep/manifest.json": '{"completed": [5]}\n', "sweep/trace_augmented_N5.csv": trace([0.1])}
    sides = {"parent": same, "change": {**same, "sweep/trace_augmented_N5.csv": trace([0.2]), **moved}}
    monkeypatch.setattr(same_outputs, "run_sides", fake_runs(sides))
    roots = [checkout(tmp_path / side) for side in sides]
    assert same_outputs.main([*map(str, roots), "--work", str(tmp_path / "work")]) == status
    assert '"files"' in capsys.readouterr().out


def test_summed_trace_wall_time_per_side(tmp_path, monkeypatch, capsys):
    # every trace's wall_ms summed per side, and change/parent; the verdict does not read them
    def side(walls5, walls6):
        return {"ladder/spectra.csv": spectra(ROWS), "sweep/trace_augmented_N5.csv": trace(walls5),
                "sweep/trace_augmented_N6.csv": trace(walls6)}

    sides = {"parent": side([1.0, 2.0], [1.0]), "change": side([0.5, 1.0], [0.5])}
    assert same_outputs.trace_wall_ms(write(tmp_path / "p", sides["parent"])) == 4.0
    monkeypatch.setattr(same_outputs, "run_sides", fake_runs(sides))
    roots = [checkout(tmp_path / side) for side in sides]
    assert same_outputs.main([*map(str, roots), "--work", str(tmp_path / "work")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["trace_wall_ms"] == {"parent": 4.0, "change": 2.0, "ratio": 0.5}
    assert "summed trace wall_ms: parent 4.0, change 2.0, change/parent 0.5" in captured.err


def test_wall_time_of_each_step_per_side(tmp_path, monkeypatch, capsys):
    # each step's wall time on both sides and change/parent, by its output directory; the verdict
    # does not read them
    names = [same_outputs.step_name(step) for step in same_outputs.RUNS]
    assert names == ["sweep", "sweep/analysis", "sweep/analysis-twice", "ladder", "ladder/analysis", "solve"]
    seconds = {"parent": dict(zip(names, [30.0, 1.0, 1.0, 4.0, 0.5, 1.5])),
               "change": dict(zip(names, [30.0, 1.0, 1.0, 2.0, 0.25, 1.5]))}
    sides = {"parent": {"ladder/manifest.json": "{}\n"}, "change": {"ladder/manifest.json": "{}\n"}}
    monkeypatch.setattr(same_outputs, "run_sides", fake_runs(sides, seconds))
    roots = [checkout(tmp_path / side) for side in sides]
    assert same_outputs.main([*map(str, roots), "--work", str(tmp_path / "work")]) == 0
    captured = capsys.readouterr()
    steps = json.loads(captured.out)["step_wall_s"]
    assert list(steps) == names
    assert steps["ladder"] == {"parent": 4.0, "change": 2.0, "ratio": 0.5}
    assert steps["ladder/analysis"] == {"parent": 0.5, "change": 0.25, "ratio": 0.5}
    assert steps["sweep"]["ratio"] == 1.0
    assert "wall s of step ladder: parent 4.000, change 2.000, change/parent 0.5" in captured.err


def test_each_step_is_timed_on_both_sides(tmp_path):
    # the checkouts' `hermflow.cli.main` sleeps 0.2 s on one side only
    checkouts = {"parent": checkout(tmp_path / "p"), "change": checkout(tmp_path / "c", "__import__('time').sleep(0.2)")}
    walls = same_outputs.run_sides(checkouts, tmp_path / "work")
    for side, lowest in (("parent", 0.0), ("change", 0.2)):
        assert list(walls[side]) == [same_outputs.step_name(step) for step in same_outputs.RUNS]
        assert all(seconds > lowest for seconds in walls[side].values())


def test_the_sides_run_one_after_the_other(tmp_path):
    # each command logs when it ran: no two overlap, and each step runs on the first side, then the other
    log = tmp_path / "log.txt"
    main = ("import sys, time; t = time.time(); time.sleep(0.02); "
            f"open({str(log)!r}, 'a').write(f'{{sys.argv[1]}} {{t}} {{time.time()}}\\n')")
    checkouts = {side: checkout(tmp_path / side, main) for side in ("change", "parent")}
    same_outputs.run_sides(checkouts, tmp_path / "work")
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [command for command, *_ in runs] == [step[0] for step in same_outputs.RUNS for _ in checkouts]
    spans = [(float(start), float(end)) for _, start, end in runs]
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


def test_a_failed_run_exits_2(tmp_path, capsys):
    # the change side's first `hermflow` command fails; the parent side's succeeds
    parent = checkout(tmp_path / "p")
    change = checkout(tmp_path / "c", "raise RuntimeError('broken')")
    assert same_outputs.main([str(parent), str(change), "--work", str(tmp_path / "work")]) == 2
    captured = capsys.readouterr()
    assert "error: change: hermflow sweep" in captured.err and "broken" in captured.err
    assert captured.out == ""


def test_repeats_alternate_the_side_started_first(tmp_path, monkeypatch, capsys):
    # repeat r runs into repeat<r>/ with the change side first on odd r; the verdict
    # compares the first repeat's files, and the ratios' median and range cover every repeat
    names = [same_outputs.step_name(step) for step in same_outputs.RUNS]
    calls = []

    def run_sides(checkouts, work):
        r = len(calls)
        calls.append((list(checkouts), work))
        files = {"ladder/manifest.json": "{}\n" if r == 0 else f"{{\"repeat\": {r}}}\n"}
        write(work / "parent", {**files, "sweep/trace_augmented_N5.csv": trace([100.0])})
        write(work / "change", {**files, "sweep/trace_augmented_N5.csv": trace([100.0 * (0.9, 1.2, 1.0)[r]])})
        return {"parent": dict.fromkeys(names, 2.0), "change": dict.fromkeys(names, (1.0, 3.0, 2.5)[r])}

    monkeypatch.setattr(same_outputs, "run_sides", run_sides)
    roots = [checkout(tmp_path / side) for side in ("parent", "change")]
    work = tmp_path / "work"
    assert same_outputs.main([*map(str, roots), "--work", str(work), "--repeat", "3"]) == 0
    assert [order for order, _ in calls] == [["parent", "change"], ["change", "parent"], ["parent", "change"]]
    assert [where for _, where in calls] == [work, work / "repeat1", work / "repeat2"]
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert list(report["files"]) == ["ladder/manifest.json", "sweep/trace_augmented_N5.csv"]
    assert report["trace_wall_ms"]["ratio"] == pytest.approx(0.9)  # the first repeat's, as with one run
    assert report["step_wall_s"]["ladder"] == {"parent": 2.0, "change": 1.0, "ratio": 0.5}
    repeats = report["repeats"]
    assert repeats["k"] == 3 and repeats["first"] == ["parent", "change", "parent"]
    trace_ratio = repeats["trace_wall_ms_ratio"]
    assert trace_ratio["ratios"] == pytest.approx([0.9, 1.2, 1.0])
    assert (trace_ratio["median"], trace_ratio["min"], trace_ratio["max"]) == pytest.approx((1.0, 0.9, 1.2))
    assert list(repeats["step_wall_s_ratio"]) == names
    assert repeats["step_wall_s_ratio"]["sweep"] == {"median": 1.25, "min": 0.5, "max": 1.5, "ratios": [0.5, 1.5, 1.25]}
    assert "wall s of step sweep over 3 repeats: change/parent median 1.25, range [0.5, 1.5]" in captured.err


def test_one_repeat_is_the_single_run(tmp_path, monkeypatch, capsys):
    # the default: one run into the work directory itself, the parent side first
    calls = []

    def run_sides(checkouts, work):
        calls.append((list(checkouts), work))
        return fake_runs({"parent": {"a.txt": "x\n"}, "change": {"a.txt": "x\n"}})(checkouts, work)

    monkeypatch.setattr(same_outputs, "run_sides", run_sides)
    roots = [checkout(tmp_path / side) for side in ("parent", "change")]
    assert same_outputs.main([*map(str, roots), "--work", str(tmp_path / "work")]) == 0
    assert calls == [(["parent", "change"], tmp_path / "work")]
    repeats = json.loads(capsys.readouterr().out)["repeats"]
    assert repeats["k"] == 1 and repeats["step_wall_s_ratio"]["ladder"]["ratios"] == [1.0]
    assert repeats["trace_wall_ms_ratio"] == {"median": None, "min": None, "max": None, "ratios": [None]}


def test_a_repeat_must_run(tmp_path):
    roots = [checkout(tmp_path / side) for side in ("parent", "change")]
    with pytest.raises(SystemExit):
        same_outputs.main([*map(str, roots), "--repeat", "0"])
