"""Call and options census of ``src/``: which functions each entry set
reaches, and who sets each option to a value other than its default.

A ``sys.setprofile`` hook (call events only) records every function
entered while an entry set runs (``tier1``: ``pytest tests``, tagged by
test module; ``bench``: the paper scripts; ``e2e``: ``pytest
benchmarks/e2e``), in the pytest process and in every child it forks or
starts.  At the same call events it records options: every defaulted
parameter of a ``src/repro`` function whose value differs from its
default, every ``GThinkerConfig`` field that differs from its default
(at ``__post_init__``) and every ``repro`` CLI flag that differs from the
parser's default (at ``repro.cli.main``), each with the caller that set
it.  ``table`` joins the records with every function, option and flag
defined under ``src/`` and rewrites both tables in ``docs/CENSUS.md``,
carrying over the verdict written on each row; ``--check`` writes it
under ``--out`` and exits 1 when a function nothing reached, or an
option only tests or examples set, has no verdict, or a ``deleted`` row
still exists.  docs/CENSUS.md says how to run it.  Python >= 3.11.

    python tools/census.py run {tier1,bench,e2e} [--out DIR]
    python tools/census.py table [--out DIR] [--check]
"""

from __future__ import annotations

import argparse
import ast
import atexit
import contextlib
import dataclasses
import io
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
OPT_BEGIN, OPT_END = "<!-- options:begin -->", "<!-- options:end -->"
MARK = os.sep + os.path.join("src", "repro") + os.sep
ENTRIES = ("tier1", "bench", "e2e")
BENCH_SCRIPTS = ("bench_table*.py", "bench_fig*.py", "bench_ablation_*.py",
                 "bench_10gige.py", "bench_cpu_utilization.py")

# -- recorder: runs inside the measured processes ---------------------------

_out: str | None = None
_tag = ""
_seen: dict[str, set] = {}
_codes: set = set()
_options: set = set()  # (option, setter) pairs
_recorders: dict = {}  # code object -> option recorder for its calls, or None
_labels: dict = {}  # filename -> setter label, None outside the repository
_real_exit = os._exit
_UNSEEN = object()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes.add(code)
        record = _recorders.get(code, _UNSEEN)
        if record is _UNSEEN:
            record = _recorders[code] = _recorder(code, frame)
        if record is not None:
            try:
                record(frame)
            except Exception:  # never let the census break the code it watches
                pass


def _same(value, default) -> bool:
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:
        return False


def _label(filename: str) -> str | None:
    """Who a frame in ``filename`` is: ``src:<module>``, ``cli``, a test
    module, ``bench:<script>``, ``e2e``, ``examples``; None outside."""
    if filename in _labels:
        return _labels[filename]
    label = None
    name = _function_name(filename, "")
    if name:
        module = name[:-1].removesuffix(".__init__")
        label = "cli" if module in ("repro.cli", "repro.__main__") else \
            "src:" + module.removeprefix("repro.")
    else:
        try:
            rel = Path(filename).relative_to(ROOT)
        except ValueError:
            rel = None
        if rel is not None and rel.parts[0] == "tests":
            label = rel.as_posix()
        elif rel is not None and rel.parts[:2] == ("benchmarks", "e2e"):
            label = "e2e"
        elif rel is not None and rel.parts[0] == "benchmarks":
            label = "bench:" + rel.stem
        elif rel is not None and rel.parts[0] == "examples":
            label = "examples"
    _labels[filename] = label
    return label


def _entry_label() -> str:
    """The entry set (or test module) this process runs for."""
    return _tag.split(":", 1)[-1]


def _setter(frame, home) -> str:
    """The first repository frame above ``frame`` outside the files in
    ``home``; the entry set that started the process when none is."""
    f = frame.f_back
    while f is not None and (f.f_code.co_filename in home
                             or _label(f.f_code.co_filename) is None):
        f = f.f_back
    return _label(f.f_code.co_filename) if f is not None else _entry_label()


def _function_of(namespace: dict, code):
    """The function object whose code is ``code``, found from its module."""
    parts = code.co_qualname.split(".")
    obj = namespace.get(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, "__dict__", {}).get(part)
    candidates = [obj.fget, obj.fset] if isinstance(obj, property) else [obj]
    for fn in candidates:
        fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
        while fn is not None and getattr(fn, "__code__", None) is not code:
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            return fn
    return None


def _recorder(code, frame):
    """What to record at each call of ``code`` (looked up once per code)."""
    name = _function_name(code.co_filename, code.co_qualname)
    if name is None or "<locals>" in name:
        return None
    if name == "repro.core.config:GThinkerConfig.__post_init__":
        return _record_config
    if name == "repro.cli:main":
        return _record_cli
    fn = _function_of(frame.f_globals, code)
    if fn is None:
        return None
    positional = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    pairs += list((fn.__kwdefaults__ or {}).items())
    if not pairs:
        return None
    options = [(f"{name}({p})", p, d) for p, d in pairs]
    home = (code.co_filename,)
    own = _label(code.co_filename)
    # An app is built by the job's app_factory inside the worker; the
    # factory (a class or functools.partial) was made by whoever ran the
    # job, a frame gone by then, so the entry set stands in for it.
    owner = frame.f_globals.get(code.co_qualname.split(".")[0])
    via_factory = isinstance(owner, type) and any(
        c.__module__ == "repro.core.api" and c.__name__ == "Comper" for c in owner.__mro__)

    def record(frame):
        local = frame.f_locals
        setters = None
        for option, param, default in options:
            if _same(local.get(param, default), default):
                continue
            if setters is None:
                setters = {_setter(frame, home)}
                if via_factory and setters <= {"src:core.worker", "src:core.controlplane"}:
                    setters = {_entry_label()}
                # A direct call from the callee's own module counts as
                # that module setting it, not whoever called the module.
                if frame.f_back is not None and frame.f_back.f_code.co_filename in home:
                    setters.add(own)
            for s in setters:
                _options.add((option, s))

    return record


_field_defaults: dict = {}


def _record_config(frame) -> None:
    config = frame.f_locals["self"]
    cls = type(config)
    if cls not in _field_defaults:
        _field_defaults[cls] = {
            f.name: f.default if f.default is not dataclasses.MISSING else f.default_factory()
            for f in dataclasses.fields(cls)}
    home = (frame.f_code.co_filename, dataclasses.__file__)
    # dataclasses.replace (with_updates) copies every field: only the
    # ones it was asked to change are set by its caller.
    changes = None
    f = frame.f_back
    while f is not None and (f.f_code.co_filename in home or f.f_code.co_filename.startswith("<")):
        if f.f_code is dataclasses.replace.__code__:
            changes = f.f_locals.get("changes", {})
        f = f.f_back
    setter = None
    for name, default in _field_defaults[cls].items():
        if changes is not None and name not in changes:
            continue
        if not _same(getattr(config, name), default):
            setter = setter or _setter(frame, home)
            _options.add((f"GThinkerConfig.{name}", setter))


def _record_cli(frame) -> None:
    argv = frame.f_locals.get("argv")
    argv = sys.argv[1:] if argv is None else argv
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        parser = frame.f_globals["build_parser"]()
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return
    cli = frame.f_code.co_filename
    home = (cli, os.path.join(os.path.dirname(cli), "__main__.py"))
    setter = None
    for action in _subcommands(parser)[args.command]._actions:
        if action.option_strings and action.dest != "help" and \
                not _same(getattr(args, action.dest, action.default), action.default):
            setter = setter or _setter(frame, home)
            _options.add((_flag_name(args.command, action), setter))


def _subcommands(parser) -> dict:
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _flag_name(command: str, action) -> str:
    return f"repro {command} {max(action.option_strings, key=len)}"


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
    calls = {}
    for tag, codes in list(_seen.items()):
        names = {_function_name(c.co_filename, c.co_qualname) for c in list(codes)}
        names.discard(None)
        if names:
            calls[tag] = sorted(names)
    options = sorted(_options)
    _seen.clear()
    _options.clear()
    _switch(_tag)
    if (calls or options) and _out:
        # A process killed mid-write leaves only a ``.tmp`` file, which
        # ``table``'s ``*/*.json`` glob does not read.
        path = Path(_out, f"{os.getpid()}-{uuid.uuid4().hex}.json")
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps({"calls": calls, "options": options}))
        os.replace(tmp, path)


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
    _options.clear()
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
    for old in records.glob("*.json*"):
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


def defined_functions() -> tuple[dict[str, int], list[str]]:
    """``module:qualname`` -> lines (def to end) of every function in
    src/, and ``module:qualname(param)`` for every defaulted parameter of
    a function not nested in another."""
    found: dict[str, int] = {}
    params: set[str] = set()

    def walk(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{mod}:{prefix}{child.name}"
                found[name] = found.get(name, 0) + child.end_lineno - child.lineno + 1
                if "<locals>" not in prefix:
                    a = child.args
                    positional = a.posonlyargs + a.args
                    params.update(f"{name}({arg.arg})" for arg in
                                  positional[len(positional) - len(a.defaults):])
                    params.update(f"{name}({arg.arg})" for arg, d in
                                  zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                walk(child, mod, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, mod, f"{prefix}{child.name}.")
            else:
                walk(child, mod, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), _function_name(str(path), "")[:-1], "")
    return found, sorted(params)


def defined_options() -> dict[str, tuple[str, list[str]]]:
    """Every option -> (kind, the names its records use).  A flag that
    several subcommands declare alike (``_add_common``) is one option."""
    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser
    from repro.core.config import GThinkerConfig

    options = {f"GThinkerConfig.{f.name}": ("field", [f"GThinkerConfig.{f.name}"])
               for f in dataclasses.fields(GThinkerConfig)}
    options.update((p, ("param", [p])) for p in defined_functions()[1])
    flags: dict[tuple, list[str]] = {}
    for command, sub in _subcommands(build_parser()).items():
        for a in sub._actions:
            if a.option_strings and a.dest != "help" and not a.required:
                key = (max(a.option_strings, key=len), a.container.title,
                       a.dest, repr(a.default), a.help)
                flags.setdefault(key, []).append(command)
    for (flag, *_), commands in flags.items():
        options[f"repro {'|'.join(commands)} {flag}"] = (
            "flag", [f"repro {c} {flag}" for c in commands])
    return options


def _verdicts(text: str, begin: str, end: str) -> dict[str, str]:
    i, j = text.find(begin), text.find(end)
    section = text[i:j] if 0 <= i < j else ""
    return dict(re.findall(r"^\| `([^`]+)` \|[^\n]*\| ([^|\n]+?) \|$", section, re.M))


def _replace(text: str, begin: str, end: str, body: str) -> str:
    return re.sub(re.escape(begin) + ".*?" + re.escape(end), lambda m: body, text, flags=re.S)


def _set_by(setters: set) -> str:
    tests = sorted(s for s in setters if s.startswith("tests/"))
    shown = tests if len(tests) <= 3 else [f"{len(tests)} test modules"]
    return ", ".join(sorted(setters - set(tests)) + shown) or "nothing"


def options_table(records: list[dict], text: str) -> tuple[str, list[str], str]:
    """The options table, its problems and its summary line."""
    setters: dict[str, set] = {}
    for data in records:
        for option, setter in data.get("options", ()):
            setters.setdefault(option, set()).add(setter)
    verdicts = _verdicts(text, OPT_BEGIN, OPT_END)
    options = defined_options()
    rows, problems = [], []
    counts: dict[str, list[int]] = {}
    for name, (kind, keys) in sorted(options.items(), key=lambda o: (o[1][0], o[0])):
        by = set().union(*(setters.get(k, set()) for k in keys))
        test_only = all(s.startswith("tests/") or s == "examples" for s in by)
        count = counts.setdefault(kind, [0, 0, 0])
        count[0] += 1
        count[1] += not by
        count[2] += bool(by) and test_only
        verdict = verdicts.get(name, "TODO" if test_only else "—")
        rows.append(f"| `{name}` | {kind} | {_set_by(by)} | {verdict} |")
        if test_only and not verdict.startswith(("kept:", "deleted")):
            problems.append(f"option set by {'tests or examples only' if by else 'nothing'} "
                            f"and no verdict: {name}")
        if verdict == "deleted":
            problems.append(f"option marked deleted but still defined: {name}")
    for name, verdict in sorted(verdicts.items()):
        if verdict == "deleted" and name not in options:
            rows.append(f"| `{name}` | — | — | deleted |")
    summary = "; ".join(
        f"{n} {kind}s (set by nothing: {none}; by tests or examples only: {tests})"
        for kind, (n, none, tests) in sorted(counts.items())) + "."
    body = "\n".join([OPT_BEGIN, summary, "", "| option | kind | set by | verdict |",
                      "|---|---|---|---|", *rows, OPT_END])
    return body, problems, summary


def table(out: Path, check: bool) -> int:
    reach: dict[str, set] = {}
    records = [json.loads(f.read_text()) for f in out.glob("*/*.json")]
    for data in records:
        for tag, names in data.get("calls", {}).items():
            for name in names:
                reach.setdefault(name, set()).add(tag)
    recorded = {d.name for d in out.iterdir() if d.is_dir() and any(d.glob("*.json"))}
    text = TABLE.read_text() if TABLE.exists() else \
        f"# Census of src/\n\n{BEGIN}\n{END}\n\n{OPT_BEGIN}\n{OPT_END}\n"
    verdicts = _verdicts(text, BEGIN, END)
    defs = defined_functions()[0]
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
    text = _replace(text, BEGIN, END, body)
    opt_body, opt_problems, opt_summary = options_table(records, text)
    text = _replace(text, OPT_BEGIN, OPT_END, opt_body)
    (out / "CENSUS.md" if check else TABLE).write_text(text)
    for p in problems + opt_problems:
        print("census:", p)
    print("census:", summary)
    print("census: options:", opt_summary)
    return 1 if check and (problems or opt_problems) else 0


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
