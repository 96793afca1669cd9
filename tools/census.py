"""Call census of ``src/``: which functions each entry set reaches.

A ``sys.setprofile`` hook (call events only) records every function
entered while an entry set runs (``tier1``: ``pytest tests``, tagged by
test module; ``bench``: the paper scripts; ``e2e``: ``pytest
benchmarks/e2e``), in the pytest process and in every child it forks or
starts.  ``table`` joins the records with every function defined under
``src/`` and rewrites the table in ``docs/CENSUS.md``, carrying over the
verdict written on each row; ``--check`` writes it under ``--out`` and
exits 1 when a function nothing reached has no verdict or a ``deleted``
row still exists.  docs/CENSUS.md says how to run it.  Python >= 3.11.

    python tools/census.py run {tier1,bench,e2e} [--out DIR]
    python tools/census.py table [--out DIR] [--check]
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import signal
import subprocess
import sys
import threading
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TABLE = ROOT / "docs" / "CENSUS.md"
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"
MARK = os.sep + os.path.join("src", "repro") + os.sep
ENTRIES = ("tier1", "bench", "e2e")
BENCH_SCRIPTS = ("bench_table*.py", "bench_fig*.py", "bench_ablation_*.py",
                 "bench_10gige.py", "bench_cpu_utilization.py")

# -- recorder: runs inside the measured processes ---------------------------

_out: str | None = None
_tag = ""
_seen: dict[str, set] = {}
_codes: set = set()
_real_exit = os._exit


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _switch(tag: str) -> None:
    global _tag, _codes
    _tag, _codes = tag, _seen.setdefault(tag, set())
    os.environ["CENSUS_TAG"] = tag  # children started from here inherit it


def _arm() -> None:
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _function_name(path: str, qualname: str) -> str | None:
    i = path.rfind(MARK)
    if i < 0:
        return None
    module = path[i + len(MARK) - len("repro/"):-len(".py")].replace(os.sep, ".")
    return f"{module.removesuffix('.__init__')}:{qualname}"


def _flush() -> None:
    data = {}
    for tag, codes in list(_seen.items()):
        names = {_function_name(c.co_filename, c.co_qualname) for c in list(codes)}
        names.discard(None)
        if names:
            data[tag] = sorted(names)
    _seen.clear()
    _switch(_tag)
    if data and _out:
        Path(_out, f"{os.getpid()}-{uuid.uuid4().hex}.json").write_text(json.dumps(data))


def _exit(code):
    _flush()
    _real_exit(code)


def _on_sigterm(signum, frame):
    _flush()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _flush_on_sigterm() -> None:
    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread
        pass


def _after_fork_in_child() -> None:
    _seen.clear()
    _switch(_tag)
    _flush_on_sigterm()


def start_from_env() -> None:
    """Arm the recorder if ``CENSUS_OUT`` is set (called by sitecustomize)."""
    global _out
    _out = os.environ.get("CENSUS_OUT")
    if not _out:
        return
    _switch(os.environ.get("CENSUS_TAG", ""))
    os.register_at_fork(after_in_child=_after_fork_in_child)
    os._exit = _exit
    atexit.register(_flush)
    _flush_on_sigterm()
    _arm()


# pytest plugin (``-p census``): tag tier-1 records by test module (its
# import at collection, then its tests) and re-arm each phase, since a
# test that runs cProfile replaces the hook.
def _tag_module(nodeid: str) -> None:
    if _out and _tag.startswith("tier1"):
        _switch("tier1:" + nodeid.split("::")[0])


def pytest_collectstart(collector):
    if collector.nodeid.endswith(".py"):
        _tag_module(collector.nodeid)


def pytest_runtest_setup(item):
    _tag_module(item.nodeid)
    _arm()


def pytest_runtest_call(item):
    _arm()


def pytest_runtest_teardown(item):
    _arm()


# -- driver -----------------------------------------------------------------

def run(entry: str, out: Path) -> int:
    records = out / entry
    records.mkdir(parents=True, exist_ok=True)
    for old in records.glob("*.json"):
        old.unlink()
    site = out / "site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text("import census\ncensus.start_from_env()\n")
    path = [str(site), str(Path(__file__).parent), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, CENSUS_OUT=str(records), CENSUS_TAG=entry,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    if entry == "bench":  # pytest-benchmark's pedantic clears profile hooks
        args = ["--benchmark-disable"] + sorted(
            str(p.relative_to(ROOT)) for pattern in BENCH_SCRIPTS
            for p in (ROOT / "benchmarks").glob(pattern))
    else:
        args = ["tests" if entry == "tier1" else "benchmarks/e2e"]
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "census",
           "-W", "ignore::pytest.PytestAssertRewriteWarning", *args]
    code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
    print(f"census: {entry} recorded (pytest exit {code})")
    return 0


def defined_functions() -> dict[str, int]:
    """``module:qualname`` -> lines (def to end) of every function in src/."""
    found: dict[str, int] = {}

    def walk(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{mod}:{prefix}{child.name}"
                found[name] = found.get(name, 0) + child.end_lineno - child.lineno + 1
                walk(child, mod, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, mod, f"{prefix}{child.name}.")
            else:
                walk(child, mod, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), _function_name(str(path), "")[:-1], "")
    return found


def table(out: Path, check: bool) -> int:
    reach: dict[str, set] = {}
    for f in out.glob("*/*.json"):
        for tag, names in json.loads(f.read_text()).items():
            for name in names:
                reach.setdefault(name, set()).add(tag)
    recorded = {d.name for d in out.iterdir() if d.is_dir() and any(d.glob("*.json"))}
    text = TABLE.read_text() if TABLE.exists() else f"# Call census of src/\n\n{BEGIN}\n{END}\n"
    verdicts = dict(re.findall(r"^\| `([^`]+)` \|[^\n]*\| ([^|\n]+?) \|$", text, re.M))
    defs = defined_functions()
    rows, problems = [], []
    for name, lines in sorted(defs.items()):
        tags = reach.get(name, set())
        sets = {t.split(":")[0] for t in tags}
        modules = sorted(t.split(":", 1)[1] for t in tags if ":" in t)
        # a row: no workload and at most one test module, or no test module
        if "e2e" in sets or len(modules) > 1 or (modules and "bench" in sets):
            continue
        verdict = verdicts.get(name, "TODO")
        rows.append(f"| `{name}` | {lines} | {', '.join(modules + sorted(t for t in tags if ':' not in t)) or '—'} | {verdict} |")
        if not tags and not verdict.startswith(("kept:", "deleted")):
            problems.append(f"reached by no entry set and no verdict: {name}")
    for name, verdict in sorted(verdicts.items()):
        if verdict == "deleted":
            if name in defs:
                problems.append(f"marked deleted but still in src/: {name}")
            else:
                rows.append(f"| `{name}` | — | — | deleted |")
    unreached = [n for n in defs if n not in reach]
    own_test = [n for n in defs if len(reach.get(n, ())) == 1
                and next(iter(reach[n])).startswith("tier1:")]
    summary = (f"Entry sets recorded: {', '.join(sorted(recorded))}. {len(defs)} functions, "
               f"{sum(defs.values())} lines (def to end, nested functions counted in their "
               f"parent too); reached by nothing: {len(unreached)} functions, "
               f"{sum(defs[n] for n in unreached)} lines; by one test module only: "
               f"{len(own_test)} functions, {sum(defs[n] for n in own_test)} lines.")
    body = "\n".join([BEGIN, summary, "", "| function | lines | reached by | verdict |",
                      "|---|---:|---|---|", *rows, END])
    text = re.sub(re.escape(BEGIN) + ".*?" + re.escape(END), lambda m: body, text, flags=re.S)
    (out / "CENSUS.md" if check else TABLE).write_text(text)
    for p in problems:
        print("census:", p)
    print("census:", summary)
    return 1 if check and problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("command", choices=["run", "table"])
    p.add_argument("entry", nargs="?", choices=ENTRIES)
    p.add_argument("--out", type=Path, default=ROOT / ".census")
    p.add_argument("--check", action="store_true")
    args = p.parse_args(argv)
    if args.command == "run":
        if not args.entry:
            p.error("run needs an entry set")
        return run(args.entry, args.out.resolve())
    return table(args.out.resolve(), args.check)


if __name__ == "__main__":
    sys.exit(main())
