"""The example scripts and README's commands run end to end, with warnings raised as errors."""

import contextlib
import io
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from finspec.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args):
    """python -W error args from the root of the checkout, importing finspec from ./src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_demo_lift_pipeline_runs(d):
    """Every KO-dimension the script accepts runs, and no check of the walk fails."""
    out = _run("scripts/demo_lift_pipeline.py", "--seed", "3", "--d", str(d))
    assert f"KO-dimension {d}" in out
    assert not [line for line in out.splitlines() if "FAIL" in line]


def test_example_bundle_validates(tmp_path):
    path = tmp_path / "bundle.json"
    _run("scripts/make_example_bundle.py", "--seed", "1", "--out", str(path))
    _run("-m", "finspec.cli", "validate", str(path))


def test_benchmark_selftest_passes():
    """bench/run.py --selftest imports what the benchmark uses of finspec and runs its checks on tiny cases."""
    _run("bench/run.py", "--selftest")


def test_readme_commands_exit_0(tmp_path):
    """Every `finspec` line of README's Command line block exits 0, in process, on the bundle its first line writes;
    every file a line names (the bundle, an --out, a > redirect) lies in tmp_path."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    here = lambda line: [str(tmp_path / a) if a.endswith((".json", ".dot")) else a for a in shlex.split(line)]
    assert lines[0].startswith("python scripts/make_example_bundle.py ")
    _run(*here(lines[0])[1:])
    commands = [line.partition(" > ") for line in lines if line.startswith("finspec ")]
    assert len(commands) == 10
    for command, _, target in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(here(command)[1:]) == 0, command
        if target:
            (tmp_path / target).write_text(out.getvalue(), encoding="utf-8")


def test_readme_names_resolve():
    """Every backticked dotted name in README that starts at finspec, one of its modules, or a class or function
    of one (`krajewski._products_with(A)`, `VertexLayout.legs`) names an attribute that exists."""
    import importlib
    import pkgutil
    import re

    import finspec

    modules = {m.name: importlib.import_module(f"finspec.{m.name}") for m in pkgutil.iter_modules(finspec.__path__)}
    roots = {"finspec": finspec, **modules}
    roots.update({name: obj for m in modules.values() for name, obj in vars(m).items()
                  if getattr(obj, "__module__", "").startswith("finspec.") and name not in roots})
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = [path.split(".") for path in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[^`]*`", text)]
    refs = [parts for parts in refs if parts[0] in roots]
    for parts in refs:
        obj = roots[parts[0]]
        for n, part in enumerate(parts[1:], 2):
            assert hasattr(obj, part), f"README names `{'.'.join(parts[:n])}`, which does not resolve"
            obj = getattr(obj, part)
    kinds = {"finspec" if p[0] == "finspec" else "module" if p[0] in modules else "class or function" for p in refs}
    assert kinds == {"finspec", "module", "class or function"}, kinds
